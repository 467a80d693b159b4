#include "core/kperiodic.hpp"

#include "util/stopwatch.hpp"

namespace kp {

namespace {

/// Shared round tail: MCRP solve + critical-task refresh.
KEvalStatus solve_round(const McrpOptions& mcrp, KIterWorkspace& ws) {
  const Stopwatch solve_clock;
  solve_max_cycle_ratio(ws.constraints.graph, mcrp, ws.mcrp, ws.solved);
  ws.round_solve_ms += solve_clock.elapsed_ms();
  ws.constraints.tasks_on_circuit_into(ws.solved.critical_cycle, ws.task_seen,
                                       ws.critical_tasks);
  if (ws.solved.status == McrpStatus::Infeasible) return KEvalStatus::InfeasibleK;
  return (ws.solved.status == McrpStatus::NoCycle || ws.solved.ratio.is_zero())
             ? KEvalStatus::Unbounded
             : KEvalStatus::Feasible;
}

}  // namespace

KEvalStatus evaluate_k_periodic_round(const CsdfGraph& g, const RepetitionVector& rv,
                                      const std::vector<i64>& k, const McrpOptions& mcrp,
                                      KIterWorkspace& ws, const ConstraintPoll* poll,
                                      std::span<const Buffer> extra) {
  // This build bypasses the span bookkeeping, so the incremental cache no
  // longer describes ws.constraints.
  ws.cache.invalidate();
  const Stopwatch build_clock;
  const bool built = build_constraint_graph_into(g, rv, k, ws.constraints, poll, extra);
  ws.round_build_ms += build_clock.elapsed_ms();
  if (!built) return KEvalStatus::Aborted;
  return solve_round(mcrp, ws);
}

KEvalStatus evaluate_k_periodic_round_incremental(const CsdfGraph& g, const RepetitionVector& rv,
                                                  const std::vector<i64>& k,
                                                  const McrpOptions& mcrp, KIterWorkspace& ws,
                                                  const ConstraintPoll* poll,
                                                  std::span<const Buffer> extra) {
  const Stopwatch build_clock;
  const bool built =
      build_constraint_graph_incremental(g, rv, k, ws.constraints, ws.cache, poll, extra);
  ws.round_build_ms += build_clock.elapsed_ms();
  if (!built) return KEvalStatus::Aborted;
  return solve_round(mcrp, ws);
}

KPeriodicSchedule schedule_from_potentials(const CsdfGraph& g, const RepetitionVector& rv,
                                           const std::vector<i64>& k, const ConstraintGraph& cg,
                                           const std::vector<Rational>& potentials,
                                           const Rational& period) {
  KPeriodicSchedule s;
  s.k = k;
  s.period = period;
  s.starts.resize(static_cast<std::size_t>(g.task_count()));
  s.task_periods.resize(static_cast<std::size_t>(g.task_count()));
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const i64 kt = k[static_cast<std::size_t>(t)];
    const std::int32_t phi = g.phases(t);
    // µ_t = Ω · K_t / q_t (from Th_G = K_t / (q_t µ_t) = 1/Ω).
    s.task_periods[static_cast<std::size_t>(t)] = period * Rational(i128{kt}, i128{rv.of(t)});
    auto& st = s.starts[static_cast<std::size_t>(t)];
    st.resize(static_cast<std::size_t>(kt * phi));
    const std::int32_t base = cg.task_first_node[static_cast<std::size_t>(t)];
    for (std::size_t idx = 0; idx < st.size(); ++idx) {
      st[idx] = potentials[static_cast<std::size_t>(base) + idx];
    }
  }
  return s;
}

KPeriodicResult evaluate_k_periodic(const CsdfGraph& g, const RepetitionVector& rv,
                                    const std::vector<i64>& k, const KEvalOptions& options,
                                    std::span<const Buffer> extra) {
  KPeriodicResult result;
  result.constraints = build_constraint_graph(g, rv, k, extra);

  const McrpResult solved = solve_max_cycle_ratio(result.constraints.graph, options.mcrp);
  result.mcrp_iterations = solved.iterations;
  result.critical_cycle = solved.critical_cycle;
  result.critical_tasks = result.constraints.tasks_on_circuit(solved.critical_cycle);

  if (solved.status == McrpStatus::Infeasible) {
    result.status = KEvalStatus::InfeasibleK;
    return result;
  }

  result.period = solved.ratio;  // the lcm(K) factor is already folded out
  result.status = (solved.status == McrpStatus::NoCycle || solved.ratio.is_zero())
                      ? KEvalStatus::Unbounded
                      : KEvalStatus::Feasible;

  if (options.want_schedule) {
    std::vector<Rational> starts;
    compute_mcrp_potentials(result.constraints.graph, solved.ratio, starts);
    result.schedule = schedule_from_potentials(g, rv, k, result.constraints, starts, result.period);
  }
  return result;
}

KPeriodicResult periodic_schedule(const CsdfGraph& g, const RepetitionVector& rv,
                                  const KEvalOptions& options) {
  return evaluate_k_periodic(g, rv, std::vector<i64>(static_cast<std::size_t>(g.task_count()), 1),
                             options);
}

}  // namespace kp
