// Scaling study — the paper's central claim as two curves.
//
// Sweep A (gcd-structured rates): a producer/consumer ring with rates
// 2g : 3g. The repetition vector stays [3,2] and K-Iter's constraint graph
// is *constant-size* in g, while the token counts (hence the symbolic
// state space) grow linearly — K-Iter wins by an unbounded margin. This is
// the structure of the industrial Table-2 apps.
//
// Sweep B (coprime rates): rates s : s+1. Now q = [s+1, s] itself grows and
// the critical circuit's q̄ equals q — the paper's own §6 caveat ("several
// cases exist for which K-Iter is as slow as or even slower than other
// optimal solutions"). Both exact methods degrade; honesty requires showing
// it.
//
// Both methods of every scale go through one ThroughputService batch per
// sweep. Default is one worker (the per-cell times are the point of the
// curves); argv[1] opts into more. With multiple workers the wall-clock
// budgets are under contention, so budget rows may shift — the solved
// rows are deterministic.
#include <cstdlib>
#include <iostream>

#include "api/service.hpp"
#include "model/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace kp;

/// Fixed rates 2:3, but a backlog of tokens that grows with g: the
/// self-timed execution must drain it before reaching the steady state
/// (a transient of Θ(g) states), while the K-periodic constraint graph
/// stays constant-size — K is bounded by q̄ = (3, 2) no matter how large
/// the markings are.
CsdfGraph backlog_ring(i64 g) {
  CsdfGraph out("backlog-ring-" + std::to_string(g));
  const TaskId a = out.add_task("a", 3);
  const TaskId b = out.add_task("b", 2);
  out.add_buffer("fwd", a, b, 2, 3, 12 * g);  // backlog to drain
  out.add_buffer("bwd", b, a, 3, 2, 4);       // tight return path
  return out;
}

/// Coprime rates s:s+1 (q = [s+1, s]).
CsdfGraph coprime_ring(i64 s) {
  CsdfGraph out("coprime-ring-" + std::to_string(s));
  const TaskId a = out.add_task("a", 3);
  const TaskId b = out.add_task("b", 2);
  out.add_buffer("fwd", a, b, s, s + 1, 0);
  out.add_buffer("bwd", b, a, s + 1, s, 2 * s + 2);
  return out;
}

std::string outcome_cell(const Analysis& a) {
  switch (a.outcome) {
    case Outcome::Value:
      return a.period.to_string() + (a.quality == Quality::Exact ? "" : " (bound)") + "  " +
             format_duration_ms(a.elapsed_ms);
    case Outcome::Budget:
      return "> budget";
    default:
      return "-";
  }
}

int run_sweep(ThroughputService& service, const char* title, const std::vector<i64>& scales,
              CsdfGraph (*make)(i64), const AnalysisOptions& options) {
  // Two requests per scale, one batch for the whole sweep.
  std::vector<AnalysisRequest> requests;
  requests.reserve(scales.size() * 2);
  for (const i64 s : scales) {
    const CsdfGraph g = make(s);
    requests.push_back(AnalysisRequest{.graph = g, .method = Method::KIter,
                                       .options = options});
    requests.push_back(AnalysisRequest{.graph = g, .method = Method::SymbolicExecution,
                                       .options = options});
  }
  const std::vector<Analysis> results = service.analyze_batch(requests);

  Table table({"scale", "sum(q)", "tokens on ring", "K-Iter", "symbolic [16]"});
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const i64 s = scales[i];
    const CsdfGraph& g = requests[i * 2].graph;
    const GraphStats stats = graph_stats(g);
    const Analysis& kiter = results[i * 2];
    const Analysis& symbolic = results[i * 2 + 1];
    if (kiter.outcome == Outcome::Value && symbolic.outcome == Outcome::Value &&
        kiter.quality == Quality::Exact && symbolic.quality == Quality::Exact &&
        kiter.period != symbolic.period) {
      std::cerr << "MISMATCH at scale " << s << "\n";
      return 1;
    }
    i64 tokens = 0;
    for (const Buffer& b : g.buffers()) tokens += b.initial_tokens;
    table.row({std::to_string(s), to_string(stats.sum_q), std::to_string(tokens),
               outcome_cell(kiter), outcome_cell(symbolic)});
  }
  std::cout << title << "\n\n";
  table.print(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  AnalysisOptions options;
  options.kiter.max_constraint_pairs = i128{30} * 1000 * 1000;
  options.kiter.time_budget_ms = 20000;
  options.sim.max_states = 300000;
  options.sim.time_budget_ms = 10000;

  ServiceOptions service_options;
  service_options.threads = argc > 1 ? std::atoi(argv[1]) : 1;
  ThroughputService service(service_options);

  int rc = run_sweep(
      service,
      "Sweep A — growing backlog, fixed rates 2:3 (K-Iter constant, symbolic pays the transient)",
      {1, 10, 100, 1000, 10000, 100000, 1000000}, backlog_ring, options);
  if (rc != 0) return rc;
  rc = run_sweep(
      service, "Sweep B — coprime rates s:s+1 (the paper's own worst case for K-Iter)",
      {3, 10, 30, 100, 300, 1000, 3000}, coprime_ring, options);
  if (rc != 0) return rc;
  std::cout << "Sweep A is the industrial structure (Table 2): K-Iter's cost depends on q̄\n"
               "along the critical circuit, not on token magnitudes. Sweep B is the §6\n"
               "caveat: with coprime rates q̄ = q and the K-periodic graph itself blows up.\n";
  return 0;
}
