// Regenerates the paper's figures as text artifacts:
//
//   Figure 1 — the example buffer and its Ia/Oa token counts (§2.1, §3.1);
//   Figure 2 — the running-example CSDFG and its repetition vector;
//   Figure 3 — the as-soon-as-possible schedule (Gantt);
//   Figure 4 — an intermediate K-periodic schedule (Gantt);
//   Figure 5 — the bi-valued constraint graph for K = 1, its critical
//              circuit and the resulting 1-periodic period;
//   plus the K-Iter iteration table (Algorithm 1's trace).
#include <iostream>

#include "core/kiter.hpp"
#include "core/kperiodic.hpp"
#include "gen/paper_examples.hpp"
#include "io/gantt.hpp"
#include "io/text_format.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "sim/selftimed.hpp"
#include "util/table.hpp"

int main() {
  using namespace kp;

  // ---- Figure 1 --------------------------------------------------------------
  std::cout << "== Figure 1: a buffer b with in_b=[2,3,1], out_b=[2,5], M0=0 ==\n";
  const CsdfGraph f1 = figure1_buffer();
  Table tok({"execution", "Ia<t_p,n> / Oa<t'_p',n'>"});
  tok.row({"Ia<t_1,1>", to_string(f1.produced_until(0, 1, 1))});
  tok.row({"Ia<t_1,2>", to_string(f1.produced_until(0, 1, 2))});
  tok.row({"Ia<t_3,2>", to_string(f1.produced_until(0, 3, 2))});
  tok.row({"Oa<t'_2,1>", to_string(f1.consumed_until(0, 2, 1))});
  tok.row({"Oa<t'_1,3>", to_string(f1.consumed_until(0, 1, 3))});
  tok.print(std::cout);
  std::cout << "§3.1 check: M0 + Ia<t_1,2> - Oa<t'_2,1> = 0 + 8 - 7 = "
            << to_string(f1.produced_until(0, 1, 2) - f1.consumed_until(0, 2, 1)) << " >= 0\n\n";

  // ---- Figure 2 --------------------------------------------------------------
  std::cout << "== Figure 2: the running-example CSDFG (reconstruction) ==\n";
  const CsdfGraph g = figure2_graph();
  std::cout << print_csdf(g);
  const RepetitionVector rv = compute_repetition_vector(g);
  std::cout << "repetition vector q = [";
  for (TaskId t = 0; t < g.task_count(); ++t) std::cout << (t ? "," : "") << rv.of(t);
  std::cout << "]\n\n";

  const CsdfGraph serialized = add_serialization_buffers(g);
  const RepetitionVector rv2 = compute_repetition_vector(serialized);

  // ---- Figure 3 --------------------------------------------------------------
  std::cout << "== Figure 3: as-soon-as-possible schedule (digits = phase) ==\n";
  std::cout << render_gantt(serialized, selftimed_trace(serialized, 27), 27) << "\n";

  // ---- Figure 4 --------------------------------------------------------------
  std::cout << "== Figure 4: K-periodic schedule for the intermediate K = [3,1,6,1] ==\n";
  const KPeriodicResult k2 = evaluate_k_periodic(serialized, rv2, {3, 1, 6, 1});
  std::cout << "minimum period for this K: " << k2.period << " (1-periodic gives 18, the\n"
            << "optimum is 13 — partial periodicity already helps)\n";
  std::cout << render_gantt(serialized, schedule_to_trace(serialized, k2.schedule, 27), 27)
            << "\n";

  // ---- Figure 5 --------------------------------------------------------------
  std::cout << "== Figure 5: bi-valued constraint graph for K = 1 ==\n";
  const KPeriodicResult k1 = periodic_schedule(serialized, rv2);
  const ConstraintGraph& cg = k1.constraints;
  std::cout << "nodes: " << cg.graph.node_count() << ", arcs: " << cg.graph.arc_count() << "\n";
  Table arcs({"arc", "L(e)", "H(e)"});
  for (std::int32_t a = 0; a < cg.graph.arc_count(); ++a) {
    const auto& arc = cg.graph.graph().arc(a);
    const auto src = static_cast<std::size_t>(arc.src);
    const auto dst = static_cast<std::size_t>(arc.dst);
    const auto label = [&](std::size_t node) {
      return serialized.task(cg.node_task[node]).name + "_" +
             std::to_string(cg.node_phase[node]);
    };
    arcs.row({label(src) + " -> " + label(dst), std::to_string(cg.graph.cost(a)),
              cg.graph.time(a).to_string()});
  }
  arcs.print(std::cout);
  std::cout << "max cost-to-time ratio = minimum 1-periodic period = " << k1.period << "\n";
  std::cout << "critical circuit: " << cg.describe_circuit(serialized, k1.critical_cycle)
            << "\n\n";

  // ---- Algorithm 1 trace -------------------------------------------------------
  std::cout << "== K-Iter (Algorithm 1) on the running example ==\n";
  KIterOptions options;
  options.record_trace = true;
  const KIterResult r = kiter_throughput(serialized, rv2, options);
  Table trace({"round", "K", "constraint nodes", "constraint arcs", "period",
               "Theorem-4 test"});
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const KIterRound& round = r.trace[i];
    std::string k = "[";
    for (std::size_t j = 0; j < round.k.size(); ++j) {
      k.append(j ? "," : "").append(std::to_string(round.k[j]));
    }
    k += "]";
    trace.row({std::to_string(i + 1), k, std::to_string(round.constraint_nodes),
               std::to_string(round.constraint_arcs),
               round.feasible ? round.period.to_string() : "N/S",
               round.optimality_passed ? "passed" : "failed"});
  }
  trace.print(std::cout);
  std::cout << "maximum throughput: " << r.throughput << " (period " << r.period
            << "), critical circuit: " << r.critical_description << "\n";
  return 0;
}
