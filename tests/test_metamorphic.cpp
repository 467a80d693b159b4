// Metamorphic checks over seeded random graphs: a transformation of the
// input with a known effect on the throughput must have exactly that effect
// along every execution path.
//
// Duration scaling: multiplying every execution time by c multiplies every
// constraint arc's cost L by c and leaves every H alone, so every circuit
// ratio, and the period, scale by exactly c. Every comparison the MCRP
// kernel makes is homogeneous in c, so the K-iteration takes the same
// rounds, each solve the same improvement steps, and the same critical
// cycle is reported. Checked cold and as a warm per-point analyze_variants
// sweep, for c in {1, 2^20, 2^40}; at c = 2^40 a few of the solves'
// kernel calls leave the i64 label width and run on i128 labels. Half the
// graphs get tight buffer capacities, so K-Iter takes several rounds. The
// default-option K-Iter schedule scales the same way: every start time and
// task period by exactly c, for c in {1, 2^20, 2^40, 2^52}. Its potentials
// pass still runs on i64 labels at c = 2^40 on these graphs; at c = 2^52
// most passes run on i128 labels. A failure names its seed and prints the
// graph.
//
// Monotonicity: a token added to any buffer never raises the period, and a
// raised duration never lowers it (a deadlocked graph counts as an
// infinite period, an unbounded one as zero). Checked cold, one step from
// each graph, and along 32-point warm analyze_variants sweeps — markings
// of one buffer, durations of one task — whose same-shaped variants run
// through the constraint cache's patch rounds; each sweep's last point
// must also equal its cold analysis.
//
// Id permutation: renumbering the tasks and the buffers changes nothing
// but ids. Every graph is rebuilt with its tasks and its buffers in a
// seeded random order, and keeps its outcome, quality, period, throughput
// and cert ratio, cold and along a 16-point warm marking sweep of the
// renumbered image of one buffer. A failure names its seed and prints
// both graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "api/service.hpp"
#include "core/kiter.hpp"
#include "gen/random_csdf.hpp"
#include "io/text_format.hpp"
#include "model/transform.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

CsdfGraph graph_for_seed(u64 seed) {
  Rng rng(seed);
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 8;
  options.max_q = 8;
  CsdfGraph g = random_csdf(rng, options);
  return seed % 2 == 0 ? apply_default_buffer_capacities(g, 1, 1) : g;
}

CsdfGraph with_durations_scaled(const CsdfGraph& g, i64 c) {
  CsdfGraph out = g;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    std::vector<i64> durations = g.task(t).durations;
    for (i64& d : durations) d *= c;
    out.set_durations(t, durations);
  }
  return out;
}

/// A marking sweep: buffer `b` gains 1..5 tokens over its initial marking.
std::vector<GraphDelta> marking_sweep(const CsdfGraph& g, BufferId b) {
  std::vector<GraphDelta> deltas;
  for (i64 extra = 1; extra <= 5; ++extra) {
    GraphDelta d;
    d.markings.push_back({b, g.buffer(b).initial_tokens + extra});
    deltas.push_back(d);
  }
  return deltas;
}

/// Expects `scaled` to be `base` with every duration multiplied by c.
void expect_scaled(const Analysis& scaled, const Analysis& base, i64 c) {
  ASSERT_EQ(scaled.outcome, base.outcome);
  EXPECT_EQ(scaled.quality, base.quality);
  EXPECT_EQ(scaled.rounds, base.rounds);
  EXPECT_EQ(scaled.mcrp_iterations, base.mcrp_iterations);
  EXPECT_EQ(scaled.detail, base.detail);
  if (base.outcome == Outcome::Value) {
    EXPECT_EQ(scaled.period, base.period * Rational{c});
    EXPECT_EQ(scaled.throughput, base.throughput / Rational{c});
  }
  const CriticalCycleCert& got = scaled.critical_cycle;
  const CriticalCycleCert& want = base.critical_cycle;
  EXPECT_EQ(got.coeffs, want.coeffs);
  EXPECT_EQ(got.tasks, want.tasks);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.cycle_cost, want.cycle_cost * c);
  EXPECT_EQ(got.cycle_time, want.cycle_time);
  EXPECT_EQ(got.ratio, want.ratio * Rational{c});
}

/// Expects `scaled` to be `base`'s K-Iter schedule with every start time
/// and task period multiplied by c.
void expect_schedule_scaled(const KIterResult& scaled, const KIterResult& base, i64 c) {
  const KPeriodicSchedule& got = scaled.schedule;
  const KPeriodicSchedule& want = base.schedule;
  EXPECT_EQ(scaled.status, base.status);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.period, want.period * Rational{c});
  ASSERT_EQ(got.task_periods.size(), want.task_periods.size());
  ASSERT_EQ(got.starts.size(), want.starts.size());
  for (std::size_t t = 0; t < want.starts.size(); ++t) {
    EXPECT_EQ(got.task_periods[t], want.task_periods[t] * Rational{c}) << "task " << t;
    ASSERT_EQ(got.starts[t].size(), want.starts[t].size()) << "task " << t;
    for (std::size_t i = 0; i < want.starts[t].size(); ++i) {
      EXPECT_EQ(got.starts[t][i], want.starts[t][i] * Rational{c}) << "task " << t << " start " << i;
    }
  }
}

TEST(Metamorphic, ScalingDurationsScalesThePeriodAndNothingElse) {
  const std::vector<i64> factors{i64{1} << 20, i64{1} << 40};
  int cold_values = 0;
  int warm_values = 0;
  int multi_round = 0;
  int schedules = 0;
  for (u64 seed = 1; seed <= 80; ++seed) {
    const CsdfGraph g = graph_for_seed(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", graph:\n" + print_csdf(g));
    const Analysis cold = analyze_throughput(g, Method::KIter);
    const KIterResult schedule = kiter_throughput(add_serialization_buffers(g));
    schedules += schedule.schedule.starts.empty() ? 0 : 1;
    for (const i64 c : {i64{1}, i64{1} << 20, i64{1} << 40, i64{1} << 52}) {
      SCOPED_TRACE("schedule, c = " + std::to_string(c));
      const CsdfGraph scaled = add_serialization_buffers(with_durations_scaled(g, c));
      expect_schedule_scaled(kiter_throughput(scaled), schedule, c);
    }
    const BufferId swept = static_cast<BufferId>(seed % static_cast<u64>(g.buffer_count()));

    VariantBatch batch;
    batch.base = g;
    batch.deltas = marking_sweep(g, swept);
    const std::vector<Analysis> warm = ThroughputService(ServiceOptions{0}).analyze_variants(batch);

    cold_values += cold.outcome == Outcome::Value ? 1 : 0;
    multi_round += cold.rounds > 1 ? 1 : 0;
    for (const Analysis& a : warm) warm_values += a.outcome == Outcome::Value ? 1 : 0;

    for (const i64 c : factors) {
      SCOPED_TRACE("c = " + std::to_string(c));
      const CsdfGraph scaled = with_durations_scaled(g, c);
      expect_scaled(analyze_throughput(scaled, Method::KIter), cold, c);

      batch.base = scaled;
      const std::vector<Analysis> scaled_warm =
          ThroughputService(ServiceOptions{0}).analyze_variants(batch);
      ASSERT_EQ(scaled_warm.size(), warm.size());
      for (std::size_t i = 0; i < warm.size(); ++i) {
        SCOPED_TRACE("variant " + std::to_string(i));
        expect_scaled(scaled_warm[i], warm[i], c);
      }
    }
  }
  EXPECT_GE(cold_values, 70);
  EXPECT_GE(warm_values, 350);
  EXPECT_GE(multi_round, 12) << "some graphs must take several K-Iter rounds";
  EXPECT_GE(schedules, 70);
}

/// The period as an order on outcomes: Unbounded is 0, Deadlock +∞.
/// True iff a's period <= b's.
bool period_at_most(const Analysis& a, const Analysis& b) {
  EXPECT_TRUE(a.outcome == Outcome::Value || a.outcome == Outcome::Deadlock ||
              a.outcome == Outcome::Unbounded);
  EXPECT_TRUE(b.outcome == Outcome::Value || b.outcome == Outcome::Deadlock ||
              b.outcome == Outcome::Unbounded);
  if (b.outcome == Outcome::Deadlock || a.outcome == Outcome::Unbounded) return true;
  if (a.outcome == Outcome::Deadlock || b.outcome == Outcome::Unbounded) return false;
  return a.period <= b.period;
}

std::string describe(const Analysis& a) {
  if (a.outcome == Outcome::Deadlock) return "deadlock";
  if (a.outcome == Outcome::Unbounded) return "unbounded";
  return a.period.to_string();
}

/// Expects `sweep` to be the analyses of `deltas` on `base`, ordered so
/// that each point's period is at least (raising) or at most (!raising)
/// the previous one's, with the last point equal to its cold analysis.
void expect_monotone_sweep(const CsdfGraph& base, const std::vector<GraphDelta>& deltas,
                           const std::vector<Analysis>& sweep, bool raising) {
  ASSERT_EQ(sweep.size(), deltas.size());
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    const Analysis& lower = raising ? sweep[i - 1] : sweep[i];
    const Analysis& upper = raising ? sweep[i] : sweep[i - 1];
    ASSERT_TRUE(period_at_most(lower, upper))
        << "point " << i << ": " << describe(sweep[i - 1]) << " then " << describe(sweep[i]);
  }
  const Analysis cold = analyze_throughput(make_variant(base, deltas.back()), Method::KIter);
  ASSERT_EQ(sweep.back().outcome, cold.outcome);
  EXPECT_EQ(sweep.back().period, cold.period);
}

TEST(Metamorphic, TokensNeverRaiseAndDurationsNeverLowerThePeriod) {
  constexpr i64 kPoints = 32;
  int moved = 0;  // sweeps whose period changed somewhere along the way
  for (u64 seed = 1; seed <= 80; ++seed) {
    const CsdfGraph g = graph_for_seed(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", graph:\n" + print_csdf(g));
    Rng rng(seed * 7919);
    const Analysis base = analyze_throughput(g, Method::KIter);
    const auto b = static_cast<BufferId>(rng.uniform(0, g.buffer_count() - 1));
    const auto t = static_cast<TaskId>(rng.uniform(0, g.task_count() - 1));
    const auto p = static_cast<std::size_t>(rng.uniform(0, g.phases(t) - 1));
    const i64 step = rng.uniform(1, 3);

    // Cold: one token more on buffer b, one step more on phase p of task t.
    CsdfGraph more_tokens = g;
    more_tokens.set_initial_tokens(b, g.buffer(b).initial_tokens + 1);
    ASSERT_TRUE(period_at_most(analyze_throughput(more_tokens, Method::KIter), base));
    CsdfGraph slower = g;
    std::vector<i64> durations = g.task(t).durations;
    durations[p] += step;
    slower.set_durations(t, durations);
    ASSERT_TRUE(period_at_most(base, analyze_throughput(slower, Method::KIter)));

    // Warm: 32 markings of buffer b, 32 durations of phase p of task t.
    VariantBatch marking;
    marking.base = g;
    for (i64 j = 0; j < kPoints; ++j) {
      GraphDelta d;
      d.markings.push_back({b, g.buffer(b).initial_tokens + j});
      marking.deltas.push_back(std::move(d));
    }
    VariantBatch timing;
    timing.base = g;
    durations = g.task(t).durations;
    for (i64 j = 0; j < kPoints; ++j) {
      GraphDelta d;
      d.exec_times.push_back({t, durations});
      timing.deltas.push_back(std::move(d));
      durations[p] += step;
    }
    ThroughputService service(ServiceOptions{0});
    const std::vector<Analysis> by_marking = service.analyze_variants(marking);
    const std::vector<Analysis> by_timing = service.analyze_variants(timing);
    expect_monotone_sweep(g, marking.deltas, by_marking, false);
    expect_monotone_sweep(g, timing.deltas, by_timing, true);
    moved += by_marking.front().period != by_marking.back().period ? 1 : 0;
    moved += by_timing.front().period != by_timing.back().period ? 1 : 0;
  }
  EXPECT_GE(moved, 60) << "the sweeps must actually move the period";
}

/// `g` with its tasks and its buffers renumbered: old task t becomes task
/// task_of[t], old buffer b becomes buffer buffer_of[b]; names, durations,
/// rates and markings travel with their task or buffer.
CsdfGraph renumbered(const CsdfGraph& g, const std::vector<TaskId>& task_of,
                     const std::vector<BufferId>& buffer_of) {
  std::vector<TaskId> old_task(task_of.size());
  for (std::size_t t = 0; t < task_of.size(); ++t) {
    old_task[static_cast<std::size_t>(task_of[t])] = static_cast<TaskId>(t);
  }
  std::vector<BufferId> old_buffer(buffer_of.size());
  for (std::size_t b = 0; b < buffer_of.size(); ++b) {
    old_buffer[static_cast<std::size_t>(buffer_of[b])] = static_cast<BufferId>(b);
  }
  CsdfGraph out(g.name());
  for (const TaskId t : old_task) out.add_task(g.task(t).name, g.task(t).durations);
  for (const BufferId b : old_buffer) {
    const Buffer& buf = g.buffer(b);
    out.add_buffer(buf.name, task_of[static_cast<std::size_t>(buf.src)],
                   task_of[static_cast<std::size_t>(buf.dst)], buf.prod, buf.cons,
                   buf.initial_tokens);
  }
  return out;
}

/// Everything an id permutation must leave alone.
void expect_same_up_to_ids(const Analysis& renamed, const Analysis& original) {
  ASSERT_EQ(renamed.outcome, original.outcome);
  EXPECT_EQ(renamed.quality, original.quality);
  EXPECT_EQ(renamed.period, original.period);
  EXPECT_EQ(renamed.throughput, original.throughput);
  EXPECT_EQ(renamed.critical_cycle.ratio, original.critical_cycle.ratio);
}

TEST(Metamorphic, PermutingTaskAndBufferIdsChangesOnlyIds) {
  constexpr i64 kPoints = 16;
  int values = 0;
  int moved = 0;  // graphs whose task order actually changed
  for (u64 seed = 1; seed <= 80; ++seed) {
    const CsdfGraph g = graph_for_seed(seed);
    Rng rng(seed * 104729);
    std::vector<TaskId> task_of(static_cast<std::size_t>(g.task_count()));
    std::iota(task_of.begin(), task_of.end(), 0);
    rng.shuffle(task_of);
    std::vector<BufferId> buffer_of(static_cast<std::size_t>(g.buffer_count()));
    std::iota(buffer_of.begin(), buffer_of.end(), 0);
    rng.shuffle(buffer_of);
    const CsdfGraph h = renumbered(g, task_of, buffer_of);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", graph:\n" + print_csdf(g) +
                 "renumbered:\n" + print_csdf(h));
    moved += std::is_sorted(task_of.begin(), task_of.end()) ? 0 : 1;

    const Analysis cold = analyze_throughput(g, Method::KIter);
    expect_same_up_to_ids(analyze_throughput(h, Method::KIter), cold);
    values += cold.outcome == Outcome::Value ? 1 : 0;

    const auto b = static_cast<BufferId>(rng.uniform(0, g.buffer_count() - 1));
    VariantBatch sweep;
    sweep.base = g;
    VariantBatch image;
    image.base = h;
    for (i64 j = 0; j < kPoints; ++j) {
      GraphDelta d;
      d.markings.push_back({b, g.buffer(b).initial_tokens + j});
      sweep.deltas.push_back(d);
      d.markings.front().buffer = buffer_of[static_cast<std::size_t>(b)];
      image.deltas.push_back(std::move(d));
    }
    ThroughputService service(ServiceOptions{0});
    const std::vector<Analysis> by_id = service.analyze_variants(sweep);
    const std::vector<Analysis> by_image = service.analyze_variants(image);
    ASSERT_EQ(by_image.size(), by_id.size());
    for (std::size_t i = 0; i < by_id.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      expect_same_up_to_ids(by_image[i], by_id[i]);
    }
  }
  EXPECT_GE(values, 70);
  EXPECT_GE(moved, 60) << "most graphs must actually be renumbered";
}

}  // namespace
}  // namespace kp
