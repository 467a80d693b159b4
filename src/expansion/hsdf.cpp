#include "expansion/hsdf.hpp"

#include <algorithm>

#include "mcrp/cycle_ratio.hpp"
#include "util/error.hpp"

namespace kp {

HsdfExpansion expand_to_hsdf(const CsdfGraph& g, const RepetitionVector& rv, i64 max_nodes,
                             i64 max_arcs) {
  if (!g.is_sdf()) throw ModelError("HSDF expansion supports single-phase (SDF) graphs only");
  if (!rv.consistent) throw ModelError("HSDF expansion requires a consistent graph");

  if (rv.sum > i128{max_nodes}) {
    throw SolverError("HSDF expansion exceeds the node budget (sum q = " + to_string(rv.sum) +
                      ")");
  }

  HsdfExpansion x;
  std::vector<i64> first(static_cast<std::size_t>(g.task_count()));
  i64 nodes = 0;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    first[static_cast<std::size_t>(t)] = nodes;
    nodes = checked_add(nodes, rv.of(t));
  }
  x.graph = BivaluedGraph(static_cast<std::int32_t>(nodes));
  x.node_task.resize(static_cast<std::size_t>(nodes));
  x.node_index.resize(static_cast<std::size_t>(nodes));
  for (TaskId t = 0; t < g.task_count(); ++t) {
    for (i64 i = 1; i <= rv.of(t); ++i) {
      const auto n = static_cast<std::size_t>(first[static_cast<std::size_t>(t)] + i - 1);
      x.node_task[n] = t;
      x.node_index[n] = i;
    }
  }

  i64 arcs = 0;
  for (const Buffer& b : g.buffers()) {
    const i64 u = b.total_prod;   // production rate per firing
    const i64 v = b.total_cons;   // consumption rate per firing
    const i64 m0 = b.initial_tokens;
    const i64 qc = rv.of(b.dst);
    const i64 qp = rv.of(b.src);
    const i64 dur = g.duration(b.src, 1);

    for (i64 j = 1; j <= qc; ++j) {
      // Consumer firing j reads tokens (j-1)·v+1 .. j·v; subtracting the
      // initial marking, it needs producer firings lo..hi in *global*
      // numbering. Non-positive indices still matter: firing ig <= 0 of
      // iteration 0 is firing ig + D·q_p of iteration -D, i.e. an arc with
      // D tokens (its dependency only binds from iteration D onwards —
      // exactly the event-graph marking semantics).
      const i64 hi = narrow64(ceil_div(i128{j} * v - m0, i128{u}));
      const i64 lo = narrow64(ceil_div(i128{j - 1} * v + 1 - m0, i128{u}));
      for (i64 ig = lo; ig <= hi; ++ig) {
        // Producer global index ig = i - D·q_p with i in 1..q_p, D >= 0.
        const i64 d = narrow64(ceil_div(i128{1} - ig, i128{qp}));
        const i64 shift = std::max<i64>(0, d);
        const i64 i_local = ig + shift * qp;
        arcs = checked_add(arcs, 1);
        if (arcs > max_arcs) throw SolverError("HSDF expansion exceeds the arc budget");
        x.graph.add_arc(
            static_cast<std::int32_t>(first[static_cast<std::size_t>(b.src)] + i_local - 1),
            static_cast<std::int32_t>(first[static_cast<std::size_t>(b.dst)] + j - 1), dur,
            Rational{shift});
      }
    }
  }
  return x;
}

ExpansionResult expansion_throughput(const CsdfGraph& g, const RepetitionVector& rv,
                                     i64 max_nodes, i64 max_arcs) {
  ExpansionResult result;
  HsdfExpansion x;
  try {
    x = expand_to_hsdf(g, rv, max_nodes, max_arcs);
  } catch (const SolverError&) {
    result.status = ThroughputStatus::ResourceLimit;
    return result;
  }
  result.nodes = x.graph.node_count();
  result.arcs = x.graph.arc_count();

  const McrpResult solved = solve_max_cycle_ratio(x.graph);
  switch (solved.status) {
    case McrpStatus::Infeasible:
      // A dependency circuit without tokens: the marked graph deadlocks.
      result.status = ThroughputStatus::Deadlock;
      result.period = Rational{0};
      result.throughput = Rational{0};
      break;
    case McrpStatus::NoCycle:
      result.status = ThroughputStatus::Unbounded;
      result.period = Rational{0};
      result.throughput = Rational{0};
      break;
    case McrpStatus::Optimal:
      if (solved.ratio.is_zero()) {
        result.status = ThroughputStatus::Unbounded;
        result.period = Rational{0};
        result.throughput = Rational{0};
      } else {
        result.status = ThroughputStatus::Optimal;
        result.period = solved.ratio;
        result.throughput = solved.ratio.reciprocal();
      }
      break;
  }
  return result;
}

}  // namespace kp
