// Tests for K-Iter (Algorithm 1) — the paper's contribution — including
// the central cross-validation property: K-Iter's exact throughput equals
// symbolic execution's on every random live CSDF graph — and the resource
// guard's lazy pricing, one case per branch.
#include <gtest/gtest.h>

#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "core/verify.hpp"
#include "gen/categories.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/transform.hpp"
#include "sim/selftimed.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

CsdfGraph serialized_figure2() { return add_serialization_buffers(figure2_graph()); }

TEST(KIter, Figure2OptimalPeriod13) {
  const KIterResult r = kiter_throughput(serialized_figure2());
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.period, Rational{13});
  EXPECT_EQ(r.throughput, Rational::of(1, 13));
}

TEST(KIter, Figure2ConvergesInThreeRounds) {
  KIterOptions options;
  options.record_trace = true;
  const KIterResult r = kiter_throughput(serialized_figure2(), options);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.rounds, 3);
  ASSERT_EQ(r.trace.size(), 3u);
  // Round 1 is the 1-periodic bound (Ω = 18), strictly worse than optimal.
  EXPECT_EQ(r.trace.front().k, (std::vector<i64>{1, 1, 1, 1}));
  EXPECT_EQ(r.trace.front().period, Rational{18});
  EXPECT_FALSE(r.trace.front().optimality_passed);
  EXPECT_TRUE(r.trace.back().optimality_passed);
}

TEST(KIter, FinalKDividesRepetitionVector) {
  const CsdfGraph g = serialized_figure2();
  const RepetitionVector rv = compute_repetition_vector(g);
  const KIterResult r = kiter_throughput(g, rv, {});
  for (TaskId t = 0; t < g.task_count(); ++t) {
    EXPECT_EQ(rv.of(t) % r.k[static_cast<std::size_t>(t)], 0)
        << "K_t must divide q_t (task " << g.task(t).name << ")";
  }
}

TEST(KIter, ReportsCriticalCircuit) {
  const KIterResult r = kiter_throughput(serialized_figure2());
  EXPECT_FALSE(r.critical_tasks.empty());
  EXPECT_FALSE(r.critical_description.empty());
}

TEST(KIter, ScheduleVerifies) {
  const CsdfGraph g = serialized_figure2();
  const RepetitionVector rv = compute_repetition_vector(g);
  const KIterResult r = kiter_throughput(g, rv, {});
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  const ScheduleCheck check = verify_schedule_by_simulation(g, rv, r.schedule);
  EXPECT_TRUE(check.ok) << check.violation;
}

TEST(KIter, DeadlockDetected) {
  const CsdfGraph g = add_serialization_buffers(figure2_deadlocked());
  const KIterResult r = kiter_throughput(g);
  EXPECT_EQ(r.status, ThroughputStatus::Deadlock);
  EXPECT_TRUE(r.throughput.is_zero());
}

TEST(KIter, UnboundedWithoutSerialization) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", 3);
  const TaskId b = g.add_task("b", 4);
  g.add_buffer("", a, b, 1, 1, 0);
  const KIterResult r = kiter_throughput(g);
  EXPECT_EQ(r.status, ThroughputStatus::Unbounded);
}

TEST(KIter, InconsistentGraphThrows) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", 1);
  const TaskId b = g.add_task("b", 1);
  g.add_buffer("", a, b, 2, 3, 0);
  g.add_buffer("", a, b, 1, 1, 0);
  EXPECT_THROW((void)kiter_throughput(g), ModelError);
}

TEST(KIter, ResourceLimitHonest) {
  KIterOptions options;
  options.max_constraint_pairs = 10;  // absurdly small
  const KIterResult r = kiter_throughput(serialized_figure2(), options);
  EXPECT_EQ(r.status, ThroughputStatus::ResourceLimit);
  EXPECT_FALSE(r.has_feasible_bound);  // the budget blocked even round 1
}

TEST(KIter, ResourceLimitAfterFirstRoundKeepsBound) {
  KIterOptions options;
  options.max_constraint_pairs = 60;  // lets K=1 through, blocks growth
  const KIterResult r = kiter_throughput(serialized_figure2(), options);
  ASSERT_EQ(r.status, ThroughputStatus::ResourceLimit);
  ASSERT_TRUE(r.has_feasible_bound);
  EXPECT_EQ(r.period, Rational{18});  // the 1-periodic achievable bound
}

// ---- the resource guard prices lazily ----------------------------------------
//
// A round is refused only when the pair count, then the stride estimate,
// then (with a warm cache) the patch estimate each exceed
// max_constraint_pairs. Each case below sets the cap from an uncapped run's
// own prices so that exactly one branch decides a round; dropping that
// branch from the guard fails the case.

/// What the guard sees before each round of an uncapped run: the candidate
/// pair count, the stride estimate, and the patch estimate against the
/// cache the previous round left (-1 before the first, cold round).
struct RoundPrice {
  std::vector<i64> k;
  i128 pairs = 0;
  i128 stride = 0;
  i128 patch = -1;
};

std::vector<RoundPrice> price_rounds(const CsdfGraph& g, std::span<const Buffer> extra = {}) {
  const RepetitionVector rv = compute_repetition_vector(g);
  KIterOptions options;
  options.record_trace = true;
  KIterWorkspace traced_ws;
  const KIterResult traced = kiter_throughput(g, rv, options, traced_ws, extra);
  KIterWorkspace ws;
  std::vector<RoundPrice> out;
  for (const KIterRound& round : traced.trace) {
    RoundPrice price{round.k, constraint_pair_count(g, round.k, extra),
                     constraint_work_estimate(g, round.k, extra)};
    if (ws.cache.valid) {
      price.patch =
          constraint_patch_work_estimate(g, rv, ws.constraints.k, round.k, ws.cache, extra);
    }
    out.push_back(price);
    (void)evaluate_k_periodic_round_incremental(g, rv, round.k, McrpOptions{}, ws, nullptr, extra);
  }
  return out;
}

TEST(KIter, GuardAdmitsARoundWhoseStrideEstimateFits) {
  // gcd_ring(64)'s second round enumerates 12416 candidate pairs but the
  // stride generator's estimate is 707: a cap at the estimate admits it.
  // Non-incremental, so no patch price can admit it instead.
  const CsdfGraph g = gcd_ring(64);
  const std::vector<RoundPrice> prices = price_rounds(g);
  ASSERT_EQ(prices.size(), 2u);
  KIterOptions options;
  options.incremental = false;
  options.max_constraint_pairs = prices[1].stride;
  ASSERT_LE(prices[0].pairs, options.max_constraint_pairs);
  ASSERT_GT(prices[1].pairs, options.max_constraint_pairs);

  const KIterResult r = kiter_throughput(g, options);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.period, kiter_throughput(g).period);
}

TEST(KIter, GuardAdmitsAPatchRoundWhosePatchEstimateFits) {
  // Serialized figure 2: the third round grows only task b's K, so patching
  // the second round's graph is priced below both full-build models.
  const CsdfGraph g = serialized_figure2();
  const std::vector<RoundPrice> prices = price_rounds(g);
  ASSERT_EQ(prices.size(), 3u);
  KIterOptions options;
  options.max_constraint_pairs = prices[2].patch;
  ASSERT_GT(prices[2].pairs, options.max_constraint_pairs);
  ASSERT_GT(prices[2].stride, options.max_constraint_pairs);
  ASSERT_LE(std::min(prices[1].pairs, prices[1].stride), options.max_constraint_pairs);

  const KIterResult r = kiter_throughput(g, options);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_EQ(r.period, Rational{13});
}

TEST(KIter, GuardRefusesARoundEveryPriceExceeds) {
  // One below the third round's patch price, all three models exceed the
  // cap: the run stops before that round with the second round's bound.
  const CsdfGraph g = serialized_figure2();
  const std::vector<RoundPrice> prices = price_rounds(g);
  ASSERT_EQ(prices.size(), 3u);
  KIterOptions options;
  options.max_constraint_pairs = prices[2].patch - 1;
  ASSERT_GT(prices[2].stride, prices[2].patch);
  ASSERT_GT(prices[2].pairs, prices[2].patch);

  const KIterResult r = kiter_throughput(g, options);
  ASSERT_EQ(r.status, ThroughputStatus::ResourceLimit);
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.rounds, 2);
  ASSERT_TRUE(r.has_feasible_bound);
  EXPECT_EQ(r.period, Rational{16});
  EXPECT_EQ(r.k, prices[2].k);
}

TEST(KIter, NodeBoundAdmitsOnlyWhatThePairCountAdmits) {
  // The guard first admits any round with (buffers) × (Σ_t K_t·φ(t))² at or
  // under the cap, which bounds the pair count from above, so the decision
  // must be the three-price rule's. Caps just below and at the first
  // round's pair count and at that bound: round 0 (cold cache, no patch
  // price) is refused exactly when the pair count and the stride estimate
  // both exceed the cap, and each later round when all three prices of the
  // uncapped run do. Half the graphs pass their serialization loops as
  // extra buffers, which the bound must count too; the first three are one
  // task with no buffer of its own, where the loop is every pair there is.
  Rng rng(2316);
  RandomCsdfOptions gen;
  gen.min_tasks = 2;
  gen.max_tasks = 7;
  gen.max_q = 6;
  int refused_first = 0;
  int admitted_first = 0;
  int refused_later = 0;
  for (int trial = 0; trial < 60; ++trial) {
    CsdfGraph base("lone");
    if (trial < 3) {
      base.add_task("A", std::vector<i64>(static_cast<std::size_t>(trial + 1), 2));
    } else {
      base = random_csdf(rng, gen);
      if (trial % 3 == 0) base = apply_default_buffer_capacities(base, 1, 1);
    }
    const bool as_extra = trial % 2 == 0;
    std::vector<Buffer> loops;
    const CsdfGraph g = as_extra ? base : add_serialization_buffers(base);
    const std::span<const Buffer> extra =
        as_extra ? serialization_buffers_into(base, loops) : std::span<const Buffer>{};
    const RepetitionVector rv = compute_repetition_vector(g);
    KIterWorkspace uncapped_ws;
    const KIterResult uncapped = kiter_throughput(g, rv, KIterOptions{}, uncapped_ws, extra);
    const std::vector<RoundPrice> prices = price_rounds(g, extra);
    ASSERT_FALSE(prices.empty());
    i128 nodes = 0;
    for (TaskId t = 0; t < g.task_count(); ++t) nodes += g.phases(t);
    const i128 bound = static_cast<i128>(g.buffers().size() + extra.size()) * nodes * nodes;
    ASSERT_GE(bound, prices[0].pairs);

    for (const i128 cap : {prices[0].pairs - 1, prices[0].pairs, bound - 1, bound}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", cap " + to_string(cap));
      std::size_t stop = prices.size();
      for (std::size_t r = 0; r < prices.size() && stop == prices.size(); ++r) {
        const RoundPrice& p = prices[r];
        if (p.pairs > cap && p.stride > cap && !(p.patch >= 0 && p.patch <= cap)) stop = r;
      }
      KIterOptions options;
      options.max_constraint_pairs = cap;
      KIterWorkspace ws;
      const KIterResult r = kiter_throughput(g, rv, options, ws, extra);
      if (stop < prices.size()) {
        EXPECT_EQ(r.status, ThroughputStatus::ResourceLimit);
        EXPECT_EQ(r.rounds, static_cast<int>(stop));
        EXPECT_EQ(r.k, prices[stop].k);
      } else {
        EXPECT_EQ(r.status, uncapped.status);
        EXPECT_EQ(r.rounds, uncapped.rounds);
        EXPECT_EQ(r.k, uncapped.k);
        EXPECT_EQ(r.period, uncapped.period);
      }
      refused_first += stop == 0 ? 1 : 0;
      admitted_first += stop > 0 ? 1 : 0;
      refused_later += stop > 0 && stop < prices.size() ? 1 : 0;
    }
  }
  EXPECT_GT(refused_first, 0);
  EXPECT_GT(admitted_first, 0);
  EXPECT_GT(refused_later, 0);
}

TEST(KIter, UpdatePoliciesAgreeOnFigure2) {
  for (const KUpdatePolicy policy :
       {KUpdatePolicy::PaperLcm, KUpdatePolicy::JumpToQ, KUpdatePolicy::Doubling}) {
    KIterOptions options;
    options.policy = policy;
    const KIterResult r = kiter_throughput(serialized_figure2(), options);
    ASSERT_EQ(r.status, ThroughputStatus::Optimal);
    EXPECT_EQ(r.period, Rational{13}) << "policy " << static_cast<int>(policy);
  }
}

TEST(KIter, HsdfConvergesInOneRound) {
  // For HSDF, q̄_t = 1 everywhere: the first critical circuit passes the
  // optimality test (this is why LgTransient is trivial for K-Iter).
  CsdfGraph g;
  const TaskId a = g.add_task("a", 2);
  const TaskId b = g.add_task("b", 3);
  const TaskId c = g.add_task("c", 4);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, c, 1, 1, 0);
  g.add_buffer("", c, a, 1, 1, 2);
  KIterOptions options;
  options.record_trace = true;
  const KIterResult r = kiter_throughput(g, options);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.rounds, 1);
  // Ring: Ω = (2+3+4)/2 tokens = 9/2.
  EXPECT_EQ(r.period, Rational::of(9, 2));
}

TEST(KIter, TinyPipelineThroughput) {
  // prod -(2:3)-> cons, feedback capacity 6: q = [3, 2], serialized.
  const CsdfGraph g = add_serialization_buffers(tiny_pipeline());
  const KIterResult r = kiter_throughput(g);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  const RepetitionVector rv = compute_repetition_vector(g);
  const SimResult sim = symbolic_execution_throughput(g, rv);
  ASSERT_EQ(sim.status, SimStatus::Periodic);
  EXPECT_EQ(r.period, sim.period);
}

// Table 1's MimicDSP and LgHSDF graphs (serialized, as the service and the
// tables analyze them), with the seeds test_gen uses. Their final solves
// leave the i64 label width: some run on Rational labels (no scale M fits
// i128), others at an M above 2^62. Each period is checked against
// symbolic execution where it finishes within 20,000 states, and each
// default-option schedule — the potentials pass at those widths — by
// simulation where Σq < 2·10^4.
TEST(KIter, Table1GraphsOutsideI64AgreeWithSymbolicAndSimulation) {
  std::vector<NamedGraph> graphs = make_mimic_dsp(1, 30);
  for (NamedGraph& ng : make_lg_hsdf(2, 20)) graphs.push_back(std::move(ng));
  KIterWorkspace ws;
  int rational_labels = 0;
  int wide_scale = 0;
  int agreed = 0;
  int verified = 0;
  for (const NamedGraph& ng : graphs) {
    SCOPED_TRACE(ng.name);
    const CsdfGraph g = add_serialization_buffers(ng.graph);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    const KIterResult r = kiter_throughput(g, rv, {}, ws);
    ASSERT_EQ(r.status, ThroughputStatus::Optimal);
    if (ws.mcrp.time_scale == 0) {
      ++rational_labels;
    } else if (ws.mcrp.time_scale > (i128{1} << 62)) {
      ++wide_scale;
    }
    SimOptions sim_options;
    sim_options.max_states = 20000;
    const SimResult sim = symbolic_execution_throughput(g, rv, sim_options);
    if (sim.status != SimStatus::Budget) {
      ASSERT_EQ(sim.status, SimStatus::Periodic);
      EXPECT_EQ(r.period, sim.period);
      ++agreed;
    }
    if (rv.sum < 20000) {
      const ScheduleCheck check = verify_schedule_by_simulation(g, rv, r.schedule, 1);
      EXPECT_TRUE(check.ok) << check.violation;
      ++verified;
    }
  }
  EXPECT_GT(rational_labels, 0);
  EXPECT_GT(wide_scale, 0);
  EXPECT_GE(agreed, 40);
  EXPECT_GE(verified, 10);
}

// The paper's central claim, as a property: K-Iter is *exact*. On every
// random live serialized CSDF graph its throughput equals the symbolic
// execution baseline's (and its schedule validates).
struct SweepConfig {
  u64 seed;
  std::int32_t max_phases;
  i64 max_q;
};

class KIterVsSymbolic : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(KIterVsSymbolic, ThroughputsAgree) {
  const SweepConfig config = GetParam();
  Rng rng(config.seed);
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 7;
  options.max_phases = config.max_phases;
  options.max_q = config.max_q;
  int checked = 0;
  for (int round = 0; round < 20; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    const KIterResult kiter = kiter_throughput(g, rv, {});
    SimOptions sim_options;
    sim_options.max_states = 2000000;
    const SimResult sim = symbolic_execution_throughput(g, rv, sim_options);
    if (sim.status == SimStatus::Budget) continue;  // too big to cross-check

    if (kiter.status == ThroughputStatus::Deadlock) {
      EXPECT_EQ(sim.status, SimStatus::Deadlock) << "round " << round;
      continue;
    }
    ASSERT_EQ(kiter.status, ThroughputStatus::Optimal) << "round " << round;
    ASSERT_EQ(sim.status, SimStatus::Periodic) << "round " << round;
    EXPECT_EQ(kiter.period, sim.period)
        << "round " << round << " kiter=" << kiter.period.to_string()
        << " sim=" << sim.period.to_string();
    ++checked;

    const ScheduleCheck check = verify_schedule_by_simulation(g, rv, kiter.schedule, 2);
    EXPECT_TRUE(check.ok) << "round " << round << ": " << check.violation;
  }
  EXPECT_GT(checked, 5);  // the sweep must actually exercise the property
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KIterVsSymbolic,
    ::testing::Values(SweepConfig{101, 1, 4}, SweepConfig{102, 1, 8}, SweepConfig{103, 2, 4},
                      SweepConfig{104, 3, 4}, SweepConfig{105, 3, 6}, SweepConfig{106, 4, 3},
                      SweepConfig{107, 2, 8}, SweepConfig{108, 3, 8}));

// Deadlock property: K-Iter and the simulator agree on starved graphs.
class DeadlockAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(DeadlockAgreement, KIterMatchesSimulator) {
  Rng rng(GetParam());
  RandomCsdfOptions options;
  options.min_tasks = 3;
  options.max_tasks = 6;
  options.max_phases = 2;
  options.max_q = 4;
  options.starve_one_cycle = true;
  int deadlocks = 0;
  for (int round = 0; round < 15; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    const KIterResult kiter = kiter_throughput(g, rv, {});
    const SimResult sim = symbolic_execution_throughput(g, rv);
    if (sim.status == SimStatus::Budget) continue;
    if (kiter.status == ThroughputStatus::Deadlock) {
      ++deadlocks;
      EXPECT_EQ(sim.status, SimStatus::Deadlock) << "round " << round;
    } else {
      ASSERT_EQ(kiter.status, ThroughputStatus::Optimal);
      ASSERT_EQ(sim.status, SimStatus::Periodic) << "round " << round;
      EXPECT_EQ(kiter.period, sim.period) << "round " << round;
    }
  }
  (void)deadlocks;  // starvation usually but not always deadlocks
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlockAgreement, ::testing::Values(201, 202, 203, 204));

// Policy property: all update policies reach the same (optimal) value.
class PolicyAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(PolicyAgreement, AllPoliciesSameThroughput) {
  Rng rng(GetParam());
  RandomCsdfOptions options;
  options.max_tasks = 6;
  options.max_phases = 2;
  options.max_q = 6;
  for (int round = 0; round < 10; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    KIterOptions base;
    const KIterResult ref = kiter_throughput(g, rv, base);
    for (const KUpdatePolicy policy : {KUpdatePolicy::JumpToQ, KUpdatePolicy::Doubling}) {
      KIterOptions options2;
      options2.policy = policy;
      const KIterResult other = kiter_throughput(g, rv, options2);
      EXPECT_EQ(other.status, ref.status) << "round " << round;
      if (ref.status == ThroughputStatus::Optimal) {
        EXPECT_EQ(other.period, ref.period) << "round " << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyAgreement, ::testing::Values(301, 302, 303));

}  // namespace
}  // namespace kp
