#include "graph/scc.hpp"

#include <algorithm>

namespace kp {

std::vector<std::vector<std::int32_t>> SccResult::grouped() const {
  std::vector<std::vector<std::int32_t>> out(static_cast<std::size_t>(component_count));
  for (std::int32_t n = 0; n < static_cast<std::int32_t>(component_of.size()); ++n) {
    out[static_cast<std::size_t>(component_of[static_cast<std::size_t>(n)])].push_back(n);
  }
  return out;
}

SccResult strongly_connected_components(const Digraph& g) {
  SccScratch scratch;
  SccResult result;
  strongly_connected_components(g, scratch, result);
  return result;
}

void strongly_connected_components(const Digraph& g, SccScratch& scratch, SccResult& out) {
  const std::int32_t n = g.node_count();
  g.finalize();
  out.component_count = 0;
  out.component_of.assign(static_cast<std::size_t>(n), -1);

  scratch.index.assign(static_cast<std::size_t>(n), -1);
  scratch.lowlink.assign(static_cast<std::size_t>(n), 0);
  scratch.on_stack.assign(static_cast<std::size_t>(n), 0);
  scratch.stack.clear();
  scratch.dfs.clear();
  auto& index = scratch.index;
  auto& lowlink = scratch.lowlink;
  auto& on_stack = scratch.on_stack;
  auto& stack = scratch.stack;
  auto& dfs = scratch.dfs;
  std::int32_t next_index = 0;

  for (std::int32_t root = 0; root < n; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    dfs.push_back(SccScratch::Frame{root, 0});
    index[static_cast<std::size_t>(root)] = lowlink[static_cast<std::size_t>(root)] = next_index++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = 1;

    while (!dfs.empty()) {
      SccScratch::Frame& f = dfs.back();
      const auto outs = g.out_span(f.node);
      if (static_cast<std::size_t>(f.arc_pos) < outs.size()) {
        const std::int32_t w =
            g.arc_unchecked(outs[static_cast<std::size_t>(f.arc_pos++)]).dst;
        if (index[static_cast<std::size_t>(w)] == -1) {
          index[static_cast<std::size_t>(w)] = lowlink[static_cast<std::size_t>(w)] = next_index++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = 1;
          dfs.push_back(SccScratch::Frame{w, 0});
        } else if (on_stack[static_cast<std::size_t>(w)] != 0) {
          lowlink[static_cast<std::size_t>(f.node)] = std::min(
              lowlink[static_cast<std::size_t>(f.node)], index[static_cast<std::size_t>(w)]);
        }
      } else {
        const std::int32_t v = f.node;
        dfs.pop_back();
        if (!dfs.empty()) {
          const std::int32_t parent = dfs.back().node;
          lowlink[static_cast<std::size_t>(parent)] =
              std::min(lowlink[static_cast<std::size_t>(parent)],
                       lowlink[static_cast<std::size_t>(v)]);
        }
        if (lowlink[static_cast<std::size_t>(v)] == index[static_cast<std::size_t>(v)]) {
          const std::int32_t comp = out.component_count++;
          for (;;) {
            const std::int32_t w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = 0;
            out.component_of[static_cast<std::size_t>(w)] = comp;
            if (w == v) break;
          }
        }
      }
    }
  }
}

bool arc_in_cycle(const Digraph& g, const SccResult& scc, std::int32_t arc_id) {
  const auto& a = g.arc(arc_id);
  return scc.component_of[static_cast<std::size_t>(a.src)] ==
         scc.component_of[static_cast<std::size_t>(a.dst)];
}

}  // namespace kp
