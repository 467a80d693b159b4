// K-Iter (Algorithm 1): optimal throughput of a CSDFG by iterative
// enlargement of the periodicity vector.
//
// Start from K = 1. Each round evaluates the minimum K-periodic period via
// the constraint graph + MCRP, then applies Theorem 4 to the critical
// circuit: if the divisibility condition holds the bound is optimal and the
// loop stops; otherwise K grows along the circuit (the paper's rule:
// K_t <- lcm(K_t, q̄_t)) and the loop repeats. An infeasibility witness
// circuit (no schedule for this K) is treated the same way; if it already
// satisfies the condition the graph is deadlocked (throughput 0).
//
// Every K_t always divides q_t, so the iteration is finite and ends at
// worst at K = q (the exact-but-exponential configuration the paper's
// introduction describes).
//
// Hot-path workspace contract: the round loop runs entirely inside a
// KIterWorkspace (see core/kperiodic.hpp) — the constraint graph (CSR
// arrays included), the MCRP solver scratch, and the critical-circuit
// buffers are rebuilt in place every round, so after the first (warming)
// round a round of no larger size performs zero heap allocations. Rounds
// solve for the period only; start times come from one potentials pass
// (compute_mcrp_potentials) at exit — on the workspace's final graph for
// the winning K, or by re-evaluating the best-bound K of a structural
// ResourceLimit exit.
// Callers that analyze many graphs back to back should pass one external
// workspace to the 4-argument overload and reuse it across calls — results
// are identical to fresh-workspace runs. record_trace allocates per round
// and is meant for diagnostics, not the hot path.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/kperiodic.hpp"
#include "model/csdf.hpp"
#include "model/repetition.hpp"

namespace kp {

enum class ThroughputStatus {
  Optimal,        ///< throughput is exact and maximal
  Deadlock,       ///< no positive-rate schedule exists (throughput 0)
  Unbounded,      ///< no circuit bounds the rate (throughput infinite)
  ResourceLimit,  ///< budget exhausted; `period` is the best *achievable*
                  ///< bound found so far when has_feasible_bound is set
};

/// How K grows when the optimality test fails — the paper's rule plus two
/// ablation alternatives (bench/bench_ablation_kpolicy compares them).
enum class KUpdatePolicy {
  PaperLcm,  ///< K_t <- lcm(K_t, q̄_t) for tasks on the circuit (Algorithm 1)
  JumpToQ,   ///< K_t <- q_t for tasks on the circuit (one-shot optimal K)
  Doubling,  ///< K_t <- smallest divisor of q_t >= 2·K_t on the circuit
};

struct KIterRound {
  std::vector<i64> k;
  bool feasible = false;
  Rational period;  // valid when feasible
  i64 constraint_nodes = 0;
  i64 constraint_arcs = 0;
  std::vector<TaskId> critical_tasks;
  bool optimality_passed = false;
};

struct KIterOptions {
  McrpOptions mcrp{};
  KUpdatePolicy policy = KUpdatePolicy::PaperLcm;

  /// Warm-start seed for the periodicity vector (off by default: nullptr =
  /// the all-ones cold start of Algorithm 1). The iteration converges to
  /// the same throughput value and the same Deadlock/Unbounded
  /// classification from ANY valid start — Theorem 4 certifies the value at
  /// whatever K it first passes, and the update rule still grows K along
  /// failing circuits — so a seed only changes the trajectory (`rounds`,
  /// the final `k`, possibly which co-critical circuit is reported). Each
  /// entry is used only if it is a positive divisor of that task's
  /// repetition count (the K_t | q_t invariant); invalid entries — and a
  /// vector of the wrong length entirely — fall back to 1, so stale seeds
  /// degrade to the cold start instead of breaking anything. The pointee
  /// is copied once at entry and may alias storage the caller later
  /// overwrites with the result's final K (the DSE service does exactly
  /// that).
  const std::vector<i64>* initial_k = nullptr;

  /// Extract the schedule on Optimal/Unbounded/best-bound exits. Callers
  /// that only consume period/throughput/classification (the DSE service)
  /// turn this off to skip the final potentials pass (one kernel call over
  /// every arc of the final constraint graph).
  bool want_schedule = true;

  /// Route constraint generation through the workspace's incremental engine
  /// (core/constraints.hpp, ConstraintGraphCache): after the cold first
  /// round, each round regenerates only the buffers incident to tasks whose
  /// K grew and splices every other buffer's arcs over from the previous
  /// round's graph. The patched graph is arc-for-arc identical to a fresh
  /// build, so every round that runs produces bit-identical results either
  /// way. One admission difference exists by design: a warm cache also
  /// prices rounds at the (often far cheaper) patch cost, so a
  /// max_constraint_pairs cap that a full build would trip may admit the
  /// patched round — extended reach, same values on the common path. Turn
  /// this off to benchmark or to cross-check the full-rebuild path.
  bool incremental = true;

  /// Refuse to run a round whose estimated generation cost — the cheapest
  /// of the candidate (p̃,p̃') pair count, the stride generator's work
  /// estimate (constraint_work_estimate), and, when `incremental` has a
  /// warm cache, the diff-and-patch cost (constraint_patch_work_estimate,
  /// typically far below both on small-circuit rounds) — exceeds this (the
  /// graph2/graph3-style blowups); the run then returns ResourceLimit with
  /// the best achievable bound so far. An O(tasks) upper bound on the pair
  /// count — (buffer count, extra included) × (Σ_t K_t·φ(t))² — is checked
  /// first: a round at or under the cap there is under it by the pair count
  /// too, so it is admitted without walking a buffer and the decision is
  /// the same. Above the bound the cheap pair count is tried next and the
  /// estimates only while every model tried so far is over the cap, so a
  /// round the pair count admits pays for no estimate. Note: a
  /// structural ResourceLimit exit (this guard or max_rounds) with a
  /// feasible bound re-evaluates the best K once to report its schedule;
  /// time/cancel exits skip that re-evaluation so they return promptly.
  i128 max_constraint_pairs = i128{200} * 1000 * 1000;

  /// Wall-clock budget; < 0 disables. Checked between rounds AND inside
  /// constraint generation (every poll_row_stride producer rows), so a
  /// deadline overshoot is bounded by one stride batch plus one MCRP solve,
  /// not one full round of generation.
  double time_budget_ms = -1.0;

  /// Cooperative cancellation hook, polled wherever time_budget_ms is
  /// checked. A true return stops the run with ResourceLimit (carrying the
  /// best achievable bound so far) and sets KIterResult::cancelled.
  /// Function-pointer + context form keeps warm rounds allocation-free.
  bool (*poll)(void* ctx) = nullptr;
  void* poll_ctx = nullptr;

  /// Producer rows between in-generation deadline/cancel checks.
  i64 poll_row_stride = 256;

  /// Record one KIterRound per iteration in the result.
  bool record_trace = false;

  int max_rounds = 1 << 20;
};

struct KIterResult {
  ThroughputStatus status = ThroughputStatus::Optimal;

  /// Ω*: exact when Optimal; the best achievable (feasible) period found
  /// when ResourceLimit with has_feasible_bound; 0 when Unbounded.
  Rational period;
  /// 1/Ω (0 when Deadlock, 0 marker when Unbounded — check status).
  Rational throughput;
  bool has_feasible_bound = false;

  /// A ResourceLimit exit was triggered by the caller's poll hook (vs. the
  /// run's own time/size budgets).
  bool cancelled = false;

  std::vector<i64> k;  // final periodicity vector

  /// Number of COMPLETED evaluation rounds (graph built or patched AND
  /// solved). A round aborted mid-generation — whether on the full-build
  /// path or the incremental patch path — is not counted, and neither is
  /// the schedule re-evaluation a structural ResourceLimit exit performs;
  /// with record_trace, rounds == trace.size() on every exit path.
  int rounds = 0;
  std::vector<KIterRound> trace;

  /// Solver-effort observability over the completed rounds: candidate-
  /// circuit improvements summed across all MCRP solves, plus wall-clock
  /// split into constraint generation (build or patch) vs MCRP solve. Time
  /// not in either bucket is round overhead (optimality test, K update,
  /// schedule extraction). Warm-started runs show these collapse.
  i64 mcrp_iterations = 0;
  /// Always 0: the solver has no policy-iteration pre-pass. Kept declared
  /// for the end-to-end benchmark's trace, which still reads it.
  i64 howard_iterations = 0;
  double build_ms = 0.0;
  double solve_ms = 0.0;

  std::vector<TaskId> critical_tasks;

  /// The final round's critical circuit rendered with task names ("A_1^1
  /// -> B_1^1 -> ... -> A_1^1", see ConstraintGraph::describe_circuit) on
  /// Optimal and Deadlock exits. Only the convenience overloads, which own
  /// their workspace, fill it; the workspace overload leaves it empty, so
  /// a serving caller does not pay for a string it never returns — the
  /// circuit is still in `ws.solved.critical_cycle` and `ws.constraints`.
  std::string critical_description;

  /// The schedule achieving `period` (valid when Optimal, or when
  /// ResourceLimit with has_feasible_bound — and options.want_schedule).
  KPeriodicSchedule schedule;
};

[[nodiscard]] KIterResult kiter_throughput(const CsdfGraph& g, const RepetitionVector& rv,
                                           const KIterOptions& options = {});

/// Workspace-reusing variant for batch analysis: every round runs inside
/// `ws` without allocating once warm (see the header comment). One
/// workspace may serve any number of consecutive analyses. `extra` buffers
/// join g's own in every round, in the resource guard's pricing and in the
/// schedule re-evaluation of a structural ResourceLimit exit — the run is
/// that of a graph holding g's buffers followed by `extra`
/// (core/constraints.hpp). The service passes the serialization self-loops
/// this way instead of copying the graph.
[[nodiscard]] KIterResult kiter_throughput(const CsdfGraph& g, const RepetitionVector& rv,
                                           const KIterOptions& options, KIterWorkspace& ws,
                                           std::span<const Buffer> extra = {});

/// Convenience: computes the repetition vector internally (throws
/// ModelError if the graph is inconsistent).
[[nodiscard]] KIterResult kiter_throughput(const CsdfGraph& g, const KIterOptions& options = {});

}  // namespace kp
