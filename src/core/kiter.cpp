#include "core/kiter.hpp"

#include <algorithm>
#include <utility>

#include "core/optimality.hpp"
#include "util/stopwatch.hpp"

namespace kp {

namespace {

/// Smallest divisor of q that is >= target (target <= q); used by the
/// Doubling ablation policy. O(sqrt(q)).
i64 smallest_divisor_at_least(i64 q, i64 target) {
  if (target >= q) return q;
  i64 best = q;
  for (i64 d = 1; d * d <= q; ++d) {
    if (q % d != 0) continue;
    if (d >= target) best = std::min(best, d);
    const i64 other = q / d;
    if (other >= target) best = std::min(best, other);
  }
  return best;
}

/// Applies the chosen update policy along the circuit. Returns true if K
/// changed.
bool update_k(std::vector<i64>& k, const RepetitionVector& rv,
              const std::vector<TaskId>& circuit_tasks, KUpdatePolicy policy) {
  i64 g = 0;
  for (const TaskId t : circuit_tasks) g = gcd64(g, rv.of(t));
  bool changed = false;
  for (const TaskId t : circuit_tasks) {
    const auto idx = static_cast<std::size_t>(t);
    const i64 qbar = rv.of(t) / g;
    i64 next = k[idx];
    switch (policy) {
      case KUpdatePolicy::PaperLcm:
        next = lcm64(k[idx], qbar);
        break;
      case KUpdatePolicy::JumpToQ:
        next = rv.of(t);
        break;
      case KUpdatePolicy::Doubling: {
        // Grow at least geometrically while staying a divisor of q_t, and
        // never below the paper's requirement once it is small enough.
        const i64 doubled = smallest_divisor_at_least(rv.of(t), checked_mul(k[idx], 2));
        next = (k[idx] % qbar == 0) ? doubled : std::min(doubled, lcm64(k[idx], qbar));
        break;
      }
    }
    if (next != k[idx]) {
      k[idx] = next;
      changed = true;
    }
  }
  return changed;
}

/// (buffer count) × (Σ_t K_t·φ(t))², in O(tasks): a buffer pairs at most
/// every node of the constraint graph with every node, so this bounds
/// constraint_pair_count from above. Saturates at k_i128_max.
i128 pair_count_bound(const CsdfGraph& g, const std::vector<i64>& k, std::size_t buffers) {
  i128 nodes = 0;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    nodes += i128{k[static_cast<std::size_t>(t)]} * g.phases(t);  // < 2^94 per task
  }
  i128 square = 0;
  i128 bound = 0;
  if (!try_mul(nodes, nodes, square) || !try_mul(square, static_cast<i128>(buffers), bound)) {
    return k_i128_max;
  }
  return bound;
}

}  // namespace

KIterResult kiter_throughput(const CsdfGraph& g, const RepetitionVector& rv,
                             const KIterOptions& options, KIterWorkspace& ws,
                             std::span<const Buffer> extra) {
  if (!rv.consistent) throw ModelError("kiter: graph is not consistent: " + rv.failure_reason);
  KIterResult result;
  Stopwatch clock;

  // The workspace may hold another graph's constraint state from a previous
  // analysis. That is now a feature, not a hazard: the incremental cache is
  // content-keyed, so a same-shaped variant of the previous graph (a DSE
  // batch neighbour) patches only what its delta changed, and anything else
  // re-keys through a full rebuild on its own.
  ws.round_build_ms = 0.0;
  ws.round_solve_ms = 0.0;

  // Cold start K = 1, or the caller's warm seed where each entry upholds
  // the K_t | q_t invariant (anything else falls back to 1 per task, so a
  // stale or mis-sized seed degrades to the cold start, never breaks).
  std::vector<i64> k(static_cast<std::size_t>(g.task_count()), 1);
  if (options.initial_k != nullptr && options.initial_k->size() == k.size()) {
    for (std::size_t t = 0; t < k.size(); ++t) {
      const i64 seed = (*options.initial_k)[t];
      if (seed >= 1 && rv.of(static_cast<TaskId>(t)) % seed == 0) k[t] = seed;
    }
  }

  // Best achievable bound seen so far, for honest ResourceLimit reports.
  // Its schedule is extracted once at exit, not every improving round.
  std::vector<i64> best_k;
  Rational best_period;

  // One deadline/cancel predicate serves both the between-rounds checks and
  // the in-generation ConstraintPoll. Captureless lambda + context struct so
  // warm rounds stay allocation-free.
  struct PollCtx {
    const KIterOptions* options;
    const Stopwatch* clock;
    bool cancelled = false;
    bool timed_out = false;
  } poll_state{&options, &clock};
  const auto poll_fn = +[](void* p) -> bool {
    auto& ctx = *static_cast<PollCtx*>(p);
    const KIterOptions& o = *ctx.options;
    if (o.poll != nullptr && o.poll(o.poll_ctx)) {
      ctx.cancelled = true;
      return true;
    }
    if (o.time_budget_ms >= 0.0 && ctx.clock->elapsed_ms() > o.time_budget_ms) {
      ctx.timed_out = true;
      return true;
    }
    return false;
  };
  const bool want_poll = options.poll != nullptr || options.time_budget_ms >= 0.0;
  const ConstraintPoll round_poll{poll_fn, &poll_state, options.poll_row_stride};

  auto out_of_budget = [&]() { return want_poll && poll_fn(&poll_state); };

  // Schedule extraction for the K the workspace currently holds: one
  // potentials pass on the already-built, already-solved graph.
  auto extract_schedule_warm = [&](const std::vector<i64>& for_k) {
    std::vector<Rational> starts;
    compute_mcrp_potentials(ws.constraints.graph, ws.solved.ratio, starts);
    return schedule_from_potentials(g, rv, for_k, ws.constraints, starts, ws.solved.ratio);
  };

  // Full re-evaluation for a K the workspace no longer holds (the
  // best-bound K of a ResourceLimit exit) — costs one extra round.
  auto extract_schedule = [&](const std::vector<i64>& for_k) {
    KEvalOptions eval_options;
    eval_options.mcrp = options.mcrp;
    eval_options.want_schedule = true;
    return evaluate_k_periodic(g, rv, for_k, eval_options, extra).schedule;
  };

  // `rounds_done` is always the number of COMPLETED rounds: an abort mid
  // round — whether the full-build or the incremental-patch path was
  // generating — reports the same count the between-rounds budget check
  // would, so KIterResult::rounds == trace.size() on every exit.
  // Phase-time/effort snapshot shared by every exit path.
  auto snapshot_effort = [&]() {
    result.build_ms = ws.round_build_ms;
    result.solve_ms = ws.round_solve_ms;
  };

  auto finish_resource_limit = [&](int rounds_done) {
    result.status = ThroughputStatus::ResourceLimit;
    result.cancelled = poll_state.cancelled;
    result.k = k;
    result.rounds = rounds_done;
    snapshot_effort();
    // Structural exits (pair guard, max_rounds) re-evaluate the best K once
    // to report its schedule; deadline/cancel exits skip that extra round so
    // they return promptly — the bound period itself is still reported.
    const bool time_exit = poll_state.cancelled || poll_state.timed_out;
    if (result.has_feasible_bound && !time_exit && options.want_schedule) {
      result.schedule = extract_schedule(best_k);
    }
    return result;
  };

  for (int round = 0; round < options.max_rounds; ++round) {
    // ---- resource guards ---------------------------------------------------
    // Refuse the round only when every applicable cost model prices it over
    // the cap: brute-force pair count, stride-generator work estimate, and —
    // when the previous round's graph is cached — the cost of patching it,
    // which on rounds whose critical circuit touched few tasks is far below
    // a full build. That is "the cheapest of the three exceeds the cap",
    // evaluated cheapest model first and only as far as the decision needs.
    // An O(tasks) upper bound on the pair count goes first: a round under
    // it is under the pair count too, so it admits most rounds with no
    // per-buffer walk and never changes the decision. Only a warm cache
    // changes the price; the cold fallback inside the patch estimate would
    // just recompute the stride estimate.
    const i128 cap = options.max_constraint_pairs;
    const bool over_cap =
        pair_count_bound(g, k, g.buffers().size() + extra.size()) > cap &&
        constraint_pair_count(g, k, extra) > cap && constraint_work_estimate(g, k, extra) > cap &&
        !(options.incremental && ws.cache.valid &&
          constraint_patch_work_estimate(g, rv, ws.constraints.k, k, ws.cache, extra) <= cap);
    if (over_cap || out_of_budget()) return finish_resource_limit(round);

    // ---- evaluate this K (allocation-free once the workspace is warm) ------
    const ConstraintPoll* poll = want_poll ? &round_poll : nullptr;
    const KEvalStatus status =
        options.incremental
            ? evaluate_k_periodic_round_incremental(g, rv, k, options.mcrp, ws, poll, extra)
            : evaluate_k_periodic_round(g, rv, k, options.mcrp, ws, poll, extra);
    if (status == KEvalStatus::Aborted) return finish_resource_limit(round);
    result.rounds = round + 1;
    result.mcrp_iterations += ws.solved.iterations;

    if (options.record_trace) {
      KIterRound r;
      r.k = k;
      r.feasible = status != KEvalStatus::InfeasibleK;
      if (status == KEvalStatus::Feasible) r.period = ws.solved.ratio;
      r.constraint_nodes = ws.constraints.graph.node_count();
      r.constraint_arcs = ws.constraints.graph.arc_count();
      r.critical_tasks = ws.critical_tasks;
      result.trace.push_back(std::move(r));
    }

    if (status == KEvalStatus::Unbounded) {
      // Period 0 is feasible for this K, and K-periodic schedules are
      // realizable schedules, so the graph's throughput is unbounded;
      // larger K only enlarges the schedule class — conclusive.
      result.status = ThroughputStatus::Unbounded;
      result.period = Rational{0};
      result.throughput = Rational{0};
      result.k = std::move(k);
      result.critical_tasks = ws.critical_tasks;
      snapshot_effort();
      if (options.want_schedule) result.schedule = extract_schedule_warm(result.k);
      return result;
    }

    // ---- optimality test (Theorem 4, also applied to infeasibility and
    //      zero-ratio witnesses) --------------------------------------------
    const bool passed = theorem4_passes(rv, k, ws.critical_tasks);
    if (options.record_trace) result.trace.back().optimality_passed = passed;

    if (passed) {
      result.k = std::move(k);
      result.critical_tasks = ws.critical_tasks;
      snapshot_effort();
      if (status == KEvalStatus::InfeasibleK) {
        // The circuit's induced subgraph cannot be scheduled even at the K
        // that is optimal for it: the graph deadlocks.
        result.status = ThroughputStatus::Deadlock;
        result.period = Rational{0};
        result.throughput = Rational{0};
      } else {
        result.status = ThroughputStatus::Optimal;
        result.period = ws.solved.ratio;
        result.throughput = result.period.reciprocal();
        result.has_feasible_bound = true;
        if (options.want_schedule) result.schedule = extract_schedule_warm(result.k);
      }
      return result;
    }

    // Keep the best achievable bound so far for honest ResourceLimit reports.
    if (status == KEvalStatus::Feasible &&
        (!result.has_feasible_bound || ws.solved.ratio < best_period)) {
      result.has_feasible_bound = true;
      best_period = ws.solved.ratio;
      result.period = best_period;
      result.throughput = best_period.reciprocal();
      best_k.assign(k.begin(), k.end());
    }

    if (!update_k(k, rv, ws.critical_tasks, options.policy)) {
      throw SolverError("kiter: failed optimality test but K did not grow (invariant breach)");
    }
  }

  return finish_resource_limit(result.rounds);
}

KIterResult kiter_throughput(const CsdfGraph& g, const RepetitionVector& rv,
                             const KIterOptions& options) {
  KIterWorkspace ws;
  KIterResult result = kiter_throughput(g, rv, options, ws);
  // The workspace still holds the final round's graph and circuit.
  if (result.status == ThroughputStatus::Optimal || result.status == ThroughputStatus::Deadlock) {
    result.critical_description = ws.constraints.describe_circuit(g, ws.solved.critical_cycle);
  }
  return result;
}

KIterResult kiter_throughput(const CsdfGraph& g, const KIterOptions& options) {
  return kiter_throughput(g, compute_repetition_vector(g), options);
}

}  // namespace kp
