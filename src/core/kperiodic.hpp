// Fixed-K evaluation: minimum-period K-periodic schedule of a CSDFG
// (§2.4, §3.2, §3.3 of the paper).
//
// evaluate_k_periodic builds the Theorem-2 constraint graph for the given
// periodicity vector, solves the Max Cost-to-time Ratio Problem exactly and
// reads back a complete schedule: the first K_t·φ(t) start times of every
// task plus its period µ_t. The 1-periodic baseline [4] is the K = 1
// special case (see periodic_schedule below).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/constraints.hpp"
#include "mcrp/cycle_ratio.hpp"
#include "model/csdf.hpp"
#include "model/repetition.hpp"

namespace kp {

enum class KEvalStatus {
  Feasible,     ///< a K-periodic schedule exists; `schedule` is the fastest
  InfeasibleK,  ///< no K-periodic schedule for this K (the paper's "N/S")
  Unbounded,    ///< period 0 feasible: no circuit constrains the rate
  Aborted,      ///< a ConstraintPoll stopped constraint generation
                ///< mid-round (the MCRP solve never aborts); no result
};

/// A complete K-periodic schedule (Definition §2.4): the first K_t
/// executions of every phase, explicit; everything else derived by
/// S<t_p, α·K_t + β> = S<t_p, β> + α·µ_t.
struct KPeriodicSchedule {
  std::vector<i64> k;
  Rational period;  // Ω_G: graph-normalized period; throughput = 1/Ω

  /// starts[t][(iter-1)·φ(t) + (phase-1)] = S<t_phase, iter>, iter in 1..K_t.
  std::vector<std::vector<Rational>> starts;

  /// µ_t = Ω · K_t / q_t per task.
  std::vector<Rational> task_periods;

  /// S<t_p, n> for any execution index n >= 1.
  [[nodiscard]] Rational start_of(TaskId t, std::int32_t phase, i64 n,
                                  std::int32_t phi_t) const {
    const i64 kt = k[static_cast<std::size_t>(t)];
    const i64 beta = (n - 1) % kt + 1;
    const i64 alpha = (n - 1) / kt;
    Rational s = starts[static_cast<std::size_t>(t)]
                       [static_cast<std::size_t>((beta - 1) * phi_t + (phase - 1))];
    if (alpha != 0) {
      s += task_periods[static_cast<std::size_t>(t)] * Rational(i128{alpha}, 1);
    }
    return s;
  }

  [[nodiscard]] Rational throughput() const {
    return period.is_zero() ? Rational{0} : period.reciprocal();
  }
};

struct KPeriodicResult {
  KEvalStatus status = KEvalStatus::Unbounded;

  /// Valid when status == Feasible (and best-effort when Unbounded:
  /// start times with period 0).
  KPeriodicSchedule schedule;

  /// Ω for this K (equals schedule.period when Feasible).
  Rational period;

  /// Distinct tasks on the critical (or infeasibility-witness) circuit.
  std::vector<TaskId> critical_tasks;

  /// Critical circuit as arc ids of `constraints.graph`.
  std::vector<std::int32_t> critical_cycle;

  /// The constraint graph (kept for diagnostics and the optimality test).
  ConstraintGraph constraints;

  int mcrp_iterations = 0;
};

struct KEvalOptions {
  McrpOptions mcrp{};
  /// Whether to extract start times (one kernel call over every arc:
  /// compute_mcrp_potentials).
  bool want_schedule = true;
};

/// Reusable storage for the K-iteration hot path: the constraint graph, the
/// MCRP solver scratch, the solved result, and the critical-task scratch are
/// all rebuilt in place each round, so after the first (warming) round a
/// round of no larger size performs zero heap allocations. One workspace
/// serves any number of consecutive analyses (see kiter_throughput).
///
/// `cache` is the incremental constraint-graph engine's state over
/// `constraints` (per-buffer arc spans, the content snapshot of the model
/// they were generated from, and the ping-pong splice target). It is owned
/// here so warm patched rounds stay zero-allocation. The snapshot is
/// content-keyed: it survives across analyses on purpose, so a worker
/// serving a parametric DSE batch patches each same-shaped variant instead
/// of rebuilding, while a structurally different graph re-keys through a
/// full rebuild automatically.
struct KIterWorkspace {
  ConstraintGraph constraints;
  ConstraintGraphCache cache;
  McrpScratch mcrp;
  McrpResult solved;
  std::vector<TaskId> critical_tasks;
  std::vector<std::int8_t> task_seen;

  /// Hard warm-state boundary for the MCRP solver: forces the next solve
  /// fully cold. The DSE service calls this wherever a sweep's warm chain
  /// must break.
  void reset_solver_warm_start() noexcept { mcrp.reset_warm_start(); }

  /// Per-analysis phase-time accumulators, maintained by the round
  /// entry points: constraint generation (build or patch) vs MCRP solve.
  /// kiter_throughput zeroes them at entry and snapshots them into
  /// KIterResult at exit; anything not in either bucket is round overhead.
  double round_build_ms = 0.0;
  double round_solve_ms = 0.0;
};

/// One allocation-free (when warm) evaluation round: builds the constraint
/// graph for `k` into ws.constraints, solves the MCRP into ws.solved
/// (start times are a separate, final-round pass: compute_mcrp_potentials),
/// and refreshes ws.critical_tasks from the critical (or witness)
/// circuit. The period for a Feasible round is ws.solved.ratio. A non-null
/// `poll` is forwarded into constraint generation (see ConstraintPoll);
/// when it fires the round returns Aborted and the workspace holds a
/// partial graph that must not be read. `extra` buffers are generated
/// after g's own (core/constraints.hpp), as in every function below.
KEvalStatus evaluate_k_periodic_round(const CsdfGraph& g, const RepetitionVector& rv,
                                      const std::vector<i64>& k, const McrpOptions& mcrp,
                                      KIterWorkspace& ws, const ConstraintPoll* poll = nullptr,
                                      std::span<const Buffer> extra = {});

/// Incremental variant: constraint generation routes through ws.cache
/// (build_constraint_graph_incremental) — when the cache is warm and only a
/// subset of the graph's content changed since the previous round (a K
/// bump, an execution-time edit, a marking edit of a same-shaped variant),
/// the graph is patched instead of fully regenerated. The patched graph is
/// arc-for-arc identical to a fresh build, so every downstream result
/// (period, critical circuit, schedule) is bit-identical to the
/// non-incremental round. The cache is content-keyed: consecutive rounds on
/// one CsdfGraph, or on a whole sweep of same-shaped variants, share it
/// without any invalidation ceremony; a different-shaped graph re-keys
/// through a full rebuild. On Aborted the cache is invalid and
/// ws.constraints must not be read.
KEvalStatus evaluate_k_periodic_round_incremental(const CsdfGraph& g, const RepetitionVector& rv,
                                                  const std::vector<i64>& k,
                                                  const McrpOptions& mcrp, KIterWorkspace& ws,
                                                  const ConstraintPoll* poll = nullptr,
                                                  std::span<const Buffer> extra = {});

/// Assembles the complete schedule from already-solved node potentials.
/// Shared by evaluate_k_periodic and the K-iteration finale (which computes
/// potentials on its workspace's final graph instead of re-solving).
[[nodiscard]] KPeriodicSchedule schedule_from_potentials(
    const CsdfGraph& g, const RepetitionVector& rv, const std::vector<i64>& k,
    const ConstraintGraph& cg, const std::vector<Rational>& potentials, const Rational& period);

[[nodiscard]] KPeriodicResult evaluate_k_periodic(const CsdfGraph& g, const RepetitionVector& rv,
                                                  const std::vector<i64>& k,
                                                  const KEvalOptions& options = {},
                                                  std::span<const Buffer> extra = {});

/// The 1-periodic baseline [4]: evaluate_k_periodic with K_t = 1 for all t.
[[nodiscard]] KPeriodicResult periodic_schedule(const CsdfGraph& g, const RepetitionVector& rv,
                                                const KEvalOptions& options = {});

}  // namespace kp
