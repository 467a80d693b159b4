#include "mcrp/karp.hpp"

#include <algorithm>

#include "graph/scc.hpp"
#include "util/error.hpp"

namespace kp {

namespace {

constexpr std::size_t kMaxKarpNodes = 20000;  // memory guard: O(n^2) tables

struct LocalArc {
  std::int32_t id;
  std::int32_t src;
  std::int32_t dst;
  i64 w;
};

}  // namespace

KarpResult karp_max_cycle_mean(const Digraph& g, const std::vector<i64>& weights) {
  if (static_cast<std::int32_t>(weights.size()) != g.arc_count()) {
    throw ModelError("karp: need one weight per arc");
  }
  KarpResult result;
  g.finalize();
  const SccResult scc = strongly_connected_components(g);
  const auto groups = scc.grouped();

  for (const auto& nodes : groups) {
    // Collect internal arcs; skip trivial SCCs without self-loops.
    std::vector<std::int32_t> local(static_cast<std::size_t>(g.node_count()), -1);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      local[static_cast<std::size_t>(nodes[i])] = static_cast<std::int32_t>(i);
    }
    std::vector<LocalArc> arcs;
    for (const std::int32_t v : nodes) {
      for (const std::int32_t a : g.out_span(v)) {
        const std::int32_t dst = g.arc_unchecked(a).dst;
        if (scc.component_of[static_cast<std::size_t>(dst)] ==
            scc.component_of[static_cast<std::size_t>(v)]) {
          arcs.push_back(LocalArc{a, local[static_cast<std::size_t>(v)],
                                  local[static_cast<std::size_t>(dst)],
                                  weights[static_cast<std::size_t>(a)]});
        }
      }
    }
    if (arcs.empty()) continue;
    const std::size_t n = nodes.size();
    if (n > kMaxKarpNodes) {
      throw SolverError("karp: SCC too large for the O(n^2) tables");
    }

    // D[k][v]: maximum weight of a walk with exactly k arcs ending at v
    // (multi-source: D[0][v] = 0 for every v of the SCC).
    const i128 kNegInf = static_cast<i128>(-1) << 100;
    std::vector<std::vector<i128>> dist(n + 1, std::vector<i128>(n, kNegInf));
    std::vector<std::vector<std::int32_t>> parent(n + 1, std::vector<std::int32_t>(n, -1));
    for (std::size_t v = 0; v < n; ++v) dist[0][v] = 0;
    for (std::size_t k = 1; k <= n; ++k) {
      for (const LocalArc& a : arcs) {
        if (dist[k - 1][static_cast<std::size_t>(a.src)] == kNegInf) continue;
        const i128 cand = dist[k - 1][static_cast<std::size_t>(a.src)] + a.w;
        if (cand > dist[k][static_cast<std::size_t>(a.dst)]) {
          dist[k][static_cast<std::size_t>(a.dst)] = cand;
          parent[k][static_cast<std::size_t>(a.dst)] =
              static_cast<std::int32_t>(&a - arcs.data());
        }
      }
    }

    // λ = max_v min_{0<=k<n} (D[n][v] - D[k][v]) / (n - k).
    bool scc_has = false;
    Rational scc_best;
    std::size_t best_v = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (dist[n][v] == kNegInf) continue;
      bool have = false;
      Rational vmin;
      for (std::size_t k = 0; k < n; ++k) {
        if (dist[k][v] == kNegInf) continue;
        const Rational cand(dist[n][v] - dist[k][v], static_cast<i128>(n - k));
        if (!have || cand < vmin) {
          vmin = cand;
          have = true;
        }
      }
      if (have && (!scc_has || vmin > scc_best)) {
        scc_best = vmin;
        best_v = v;
        scc_has = true;
      }
    }
    if (!scc_has) continue;

    if (!result.has_cycle || scc_best > result.max_cycle_mean) {
      result.has_cycle = true;
      result.max_cycle_mean = scc_best;
      // Critical cycle: the walk realizing D[n][best_v] revisits some node;
      // that loop has mean exactly λ (Karp's theorem).
      std::vector<std::int32_t> arc_of_step(n + 1, -1);
      std::vector<std::int32_t> node_at_step(n + 1, -1);
      std::size_t k = n;
      std::int32_t v = static_cast<std::int32_t>(best_v);
      while (k > 0 && parent[k][static_cast<std::size_t>(v)] >= 0) {
        node_at_step[k] = v;
        arc_of_step[k] = parent[k][static_cast<std::size_t>(v)];
        v = arcs[static_cast<std::size_t>(arc_of_step[k])].src;
        --k;
      }
      node_at_step[k] = v;
      // Find a repeated node in node_at_step[k..n]; the segment between the
      // two occurrences is the cycle.
      std::vector<std::int32_t> seen_at(n, -1);
      std::size_t lo = 0, hi = 0;
      for (std::size_t s = k; s <= n; ++s) {
        const std::int32_t node = node_at_step[s];
        if (seen_at[static_cast<std::size_t>(node)] >= 0) {
          lo = static_cast<std::size_t>(seen_at[static_cast<std::size_t>(node)]);
          hi = s;
          break;
        }
        seen_at[static_cast<std::size_t>(node)] = static_cast<std::int32_t>(s);
      }
      if (hi == 0) throw SolverError("karp: walk without repeated node (invariant breach)");
      result.cycle_arcs.clear();
      for (std::size_t s = lo + 1; s <= hi; ++s) {
        result.cycle_arcs.push_back(arcs[static_cast<std::size_t>(arc_of_step[s])].id);
      }
    }
  }
  return result;
}

}  // namespace kp
