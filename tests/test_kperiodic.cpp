// Tests for fixed-K evaluation (core/kperiodic.hpp): the 1-periodic
// baseline, schedule extraction, and monotonicity of the bound in K.
#include <gtest/gtest.h>

#include "core/kperiodic.hpp"
#include "core/verify.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/transform.hpp"

namespace kp {
namespace {

struct Prepared {
  CsdfGraph g;
  RepetitionVector rv;
};

Prepared prepared_figure2() {
  Prepared p{add_serialization_buffers(figure2_graph()), {}};
  p.rv = compute_repetition_vector(p.g);
  return p;
}

TEST(KPeriodic, Figure2PeriodicBoundIs18) {
  const Prepared p = prepared_figure2();
  const KPeriodicResult r = periodic_schedule(p.g, p.rv);
  ASSERT_EQ(r.status, KEvalStatus::Feasible);
  EXPECT_EQ(r.period, Rational{18});
  EXPECT_EQ(r.schedule.throughput(), Rational::of(1, 18));
}

TEST(KPeriodic, Figure2OptimalKGives13) {
  const Prepared p = prepared_figure2();
  // K = q is always optimal (the paper's "repetition vector" configuration).
  const KPeriodicResult r = evaluate_k_periodic(p.g, p.rv, p.rv.q);
  ASSERT_EQ(r.status, KEvalStatus::Feasible);
  EXPECT_EQ(r.period, Rational{13});
}

TEST(KPeriodic, TaskPeriodsFollowTheorem1) {
  // µ_t = Ω·K_t/q_t, so Th_t/q_t is equal across tasks (Theorem 1).
  const Prepared p = prepared_figure2();
  const KPeriodicResult r = periodic_schedule(p.g, p.rv);
  ASSERT_EQ(r.status, KEvalStatus::Feasible);
  for (TaskId t = 0; t < p.g.task_count(); ++t) {
    EXPECT_EQ(r.schedule.task_periods[static_cast<std::size_t>(t)] * Rational{p.rv.of(t)},
              r.period);
  }
}

TEST(KPeriodic, StartOfClosedForm) {
  const Prepared p = prepared_figure2();
  const KPeriodicResult r = evaluate_k_periodic(p.g, p.rv, {2, 1, 1, 1});
  ASSERT_EQ(r.status, KEvalStatus::Feasible);
  const TaskId a = *p.g.find_task("A");
  const std::int32_t phi = p.g.phases(a);
  const Rational mu = r.schedule.task_periods[static_cast<std::size_t>(a)];
  // With K_A = 2: execution 3 = iteration 1 shifted one period; execution 4
  // = iteration 2 shifted one period.
  EXPECT_EQ(r.schedule.start_of(a, 1, 3, phi), r.schedule.start_of(a, 1, 1, phi) + mu);
  EXPECT_EQ(r.schedule.start_of(a, 2, 4, phi), r.schedule.start_of(a, 2, 2, phi) + mu);
  EXPECT_EQ(r.schedule.start_of(a, 1, 5, phi),
            r.schedule.start_of(a, 1, 1, phi) + mu + mu);
}

TEST(KPeriodic, SchedulesVerifyBySimulation) {
  const Prepared p = prepared_figure2();
  for (const std::vector<i64>& k :
       {std::vector<i64>{1, 1, 1, 1}, std::vector<i64>{2, 1, 1, 1}, std::vector<i64>{3, 4, 6, 1}}) {
    const KPeriodicResult r = evaluate_k_periodic(p.g, p.rv, k);
    ASSERT_EQ(r.status, KEvalStatus::Feasible);
    const ScheduleCheck check = verify_schedule_by_simulation(p.g, p.rv, r.schedule);
    EXPECT_TRUE(check.ok) << check.violation;
  }
}

TEST(KPeriodic, BoundImprovesWithK) {
  // Enlarging K (divisor-wise) can only improve (reduce) the minimum
  // period: K' = multiples of K describe a superset of schedules.
  const Prepared p = prepared_figure2();
  const Rational p1 = periodic_schedule(p.g, p.rv).period;
  const Rational p2 = evaluate_k_periodic(p.g, p.rv, {3, 2, 3, 1}).period;
  const Rational p3 = evaluate_k_periodic(p.g, p.rv, p.rv.q).period;
  EXPECT_LE(p2, p1);
  EXPECT_LE(p3, p2);
}

TEST(KPeriodic, InfeasibleKDetected) {
  // A live CSDFG with no 1-periodic schedule — the paper's "N/S"
  // phenomenon (see gen/paper_examples.hpp for provenance).
  const CsdfGraph g = no_onep_schedule_graph();
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  const KPeriodicResult r1 = periodic_schedule(g, rv);
  EXPECT_EQ(r1.status, KEvalStatus::InfeasibleK);
  EXPECT_FALSE(r1.critical_tasks.empty());
  // The graph is nevertheless schedulable at larger K: K = q is feasible.
  const KPeriodicResult rq = evaluate_k_periodic(g, rv, rv.q);
  EXPECT_EQ(rq.status, KEvalStatus::Feasible);
  EXPECT_EQ(rq.period, Rational{63});
}

TEST(KPeriodic, UnboundedWithoutSerialization) {
  // An acyclic graph with no self-buffers has no circuit: period 0.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 5);
  const TaskId b = g.add_task("b", 7);
  g.add_buffer("", a, b, 1, 1, 0);
  const RepetitionVector rv = compute_repetition_vector(g);
  const KPeriodicResult r = periodic_schedule(g, rv);
  EXPECT_EQ(r.status, KEvalStatus::Unbounded);
}

TEST(KPeriodic, SerializationBoundsThroughput) {
  // The same acyclic graph, serialized: the slowest task dictates Ω = q·d.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 5);
  const TaskId b = g.add_task("b", 7);
  g.add_buffer("", a, b, 2, 1, 0);  // q = [1, 2]
  const CsdfGraph s = add_serialization_buffers(g);
  const RepetitionVector rv = compute_repetition_vector(s);
  const KPeriodicResult r = periodic_schedule(s, rv);
  ASSERT_EQ(r.status, KEvalStatus::Feasible);
  // Ω = max(q_a·d_a, q_b·d_b) = max(5, 14) = 14.
  EXPECT_EQ(r.period, Rational{14});
}

TEST(KPeriodic, StartTimesNonNegative) {
  const Prepared p = prepared_figure2();
  const KPeriodicResult r = periodic_schedule(p.g, p.rv);
  for (const auto& task_starts : r.schedule.starts) {
    for (const Rational& s : task_starts) EXPECT_GE(s, Rational{0});
  }
}

// Property sweep: on random live graphs the 1-periodic bound is feasible
// or honestly infeasible, and feasible schedules pass the independent
// token-timeline verifier.
class KPeriodicProperty : public ::testing::TestWithParam<u64> {};

TEST_P(KPeriodicProperty, FeasibleSchedulesVerify) {
  Rng rng(GetParam());
  RandomCsdfOptions options;
  options.max_tasks = 7;
  options.max_q = 5;
  for (int round = 0; round < 12; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    const KPeriodicResult r = periodic_schedule(g, rv);
    if (r.status != KEvalStatus::Feasible) continue;
    const ScheduleCheck check = verify_schedule_by_simulation(g, rv, r.schedule, 2);
    EXPECT_TRUE(check.ok) << "round " << round << ": " << check.violation;
  }
}

TEST_P(KPeriodicProperty, RandomKSchedulesVerify) {
  Rng rng(GetParam() + 1000);
  RandomCsdfOptions options;
  options.max_tasks = 5;
  options.max_q = 4;
  for (int round = 0; round < 8; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    std::vector<i64> k(static_cast<std::size_t>(g.task_count()));
    for (std::size_t i = 0; i < k.size(); ++i) {
      // Random divisor-friendly K: a divisor of q_t.
      const i64 q = rv.q[i];
      k[i] = rng.chance(1, 2) ? 1 : q;
    }
    const KPeriodicResult r = evaluate_k_periodic(g, rv, k);
    if (r.status != KEvalStatus::Feasible) continue;
    const ScheduleCheck check = verify_schedule_by_simulation(g, rv, r.schedule, 2);
    EXPECT_TRUE(check.ok) << "round " << round << ": " << check.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KPeriodicProperty, ::testing::Values(61, 62, 63, 64));

}  // namespace
}  // namespace kp
