// Cross-variant solver warm starts (KIterOptions::initial_k, the MCRP
// circuit seed) — the optimality-preserved equivalence suite:
//
//   1. Randomized warm-vs-cold K-iteration: seeding from the cold run's
//      final K, from q itself, or from random valid divisors never changes
//      the throughput value or the Deadlock/Unbounded classification.
//   2. Invalid seeds (wrong length, zeros, negatives, non-divisors) are
//      sanitized entry-by-entry down to the cold start.
//   3. Seeding an Optimal instance from its own final K converges in one
//      round with the same period.
//   4. The MCRP warm start (McrpOptions::howard_warm_start): a cost-patched
//      graph solved warm and cold yields identical MCRP results; a seed that
//      is no longer a simple circuit of the new graph (ids out of range,
//      arcs that no longer chain, a node visited twice) is dropped; a seed
//      turned infeasible by an H edit is the Infeasible witness; after
//      reset_warm_start() the solve is cold down to its critical circuit;
//      and the layout stamp gates structural reuse (set_cost preserves it,
//      structural mutations clear it, copies share it).
//   5. Service lifecycle: a Deadlock variant mid-sweep resets the worker's
//      warm state, so the following variant matches a cold run bit-for-bit;
//      warm analyze_variants is value-identical to cold per-variant runs at
//      thread counts {0, 2, 5}; and the warm sweep completes in strictly
//      fewer total rounds than the cold one (the point of the exercise).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

RandomCsdfOptions small_graphs() {
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 7;
  options.max_phases = 3;
  options.max_q = 6;
  return options;
}

void expect_same_values(const KIterResult& seeded, const KIterResult& cold,
                        const std::string& context) {
  EXPECT_EQ(seeded.status, cold.status) << context;
  EXPECT_EQ(seeded.period, cold.period) << context;
  EXPECT_EQ(seeded.throughput, cold.throughput) << context;
}

/// A random divisor of q, drawn uniformly from q's divisor list.
i64 random_divisor(Rng& rng, i64 q) {
  std::vector<i64> divisors;
  for (i64 d = 1; d <= q; ++d) {
    if (q % d == 0) divisors.push_back(d);
  }
  return divisors[static_cast<std::size_t>(
      rng.uniform(0, static_cast<i64>(divisors.size()) - 1))];
}

// ---- 1. randomized warm-vs-cold equivalence ---------------------------------

TEST(WarmStart, RandomizedSeedsNeverChangeValuesOrClassification) {
  int graphs = 0;
  for (u64 seed = 1; graphs < 80; ++seed) {
    Rng rng(seed);
    const CsdfGraph g = random_csdf(rng, small_graphs());
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    const std::string context = "seed " + std::to_string(seed);

    const KIterResult cold = kiter_throughput(g, rv, KIterOptions{});

    // Seed 1: the cold run's own final K (the service's warm pipeline).
    {
      KIterOptions options;
      options.initial_k = &cold.k;
      expect_same_values(kiter_throughput(g, rv, options), cold, context + " final-K seed");
    }
    // Seed 2: the full repetition vector (the largest valid K).
    {
      std::vector<i64> q;
      for (TaskId t = 0; t < g.task_count(); ++t) q.push_back(rv.of(t));
      KIterOptions options;
      options.initial_k = &q;
      expect_same_values(kiter_throughput(g, rv, options), cold, context + " q seed");
    }
    // Seed 3: random valid divisors of q per task.
    {
      std::vector<i64> k;
      for (TaskId t = 0; t < g.task_count(); ++t) k.push_back(random_divisor(rng, rv.of(t)));
      KIterOptions options;
      options.initial_k = &k;
      expect_same_values(kiter_throughput(g, rv, options), cold, context + " divisor seed");
    }
    ++graphs;
  }
}

// ---- 2. invalid seeds degrade to the cold start -----------------------------

TEST(WarmStart, InvalidSeedEntriesAreSanitized) {
  const CsdfGraph g = gcd_ring(12);
  const RepetitionVector rv = compute_repetition_vector(g);
  const KIterResult cold = kiter_throughput(g, rv, KIterOptions{});
  ASSERT_EQ(cold.status, ThroughputStatus::Optimal);

  // Wrong length: ignored wholesale — bit-identical to cold, rounds included.
  {
    const std::vector<i64> wrong_size{3, 3};
    KIterOptions options;
    options.initial_k = &wrong_size;
    const KIterResult r = kiter_throughput(g, rv, options);
    expect_same_values(r, cold, "wrong-size seed");
    EXPECT_EQ(r.rounds, cold.rounds) << "a mis-sized seed must be ignored entirely";
    EXPECT_EQ(r.k, cold.k);
  }
  // Zeros, negatives, non-divisors: each bad entry falls back to 1, so the
  // result is bit-identical to the cold run too (q = [1, 12, 12] here and
  // 5 divides neither, 0 and -4 are out of range).
  {
    const std::vector<i64> bad{0, -4, 5};
    KIterOptions options;
    options.initial_k = &bad;
    const KIterResult r = kiter_throughput(g, rv, options);
    expect_same_values(r, cold, "invalid-entry seed");
    EXPECT_EQ(r.rounds, cold.rounds);
    EXPECT_EQ(r.k, cold.k);
  }
}

// ---- 3. final-K seed converges in one round ---------------------------------

TEST(WarmStart, SeededFromFinalKConvergesInOneRound) {
  for (const i64 g : {6, 12, 32}) {
    const CsdfGraph graph = gcd_ring(g);
    const RepetitionVector rv = compute_repetition_vector(graph);
    const KIterResult cold = kiter_throughput(graph, rv, KIterOptions{});
    ASSERT_EQ(cold.status, ThroughputStatus::Optimal);
    ASSERT_GE(cold.rounds, 2) << "gcd_ring(" << g << ") must need K growth for this test";

    KIterOptions options;
    options.initial_k = &cold.k;
    const KIterResult seeded = kiter_throughput(graph, rv, options);
    expect_same_values(seeded, cold, "gcd_ring(" + std::to_string(g) + ")");
    EXPECT_EQ(seeded.rounds, 1) << "the final K passes Theorem 4 in its first round";
    EXPECT_EQ(seeded.k, cold.k);
  }
}

// ---- 4. MCRP warm start through the exact oracle ----------------------------

TEST(WarmStart, McrpWarmStartMatchesColdThroughCostPatches) {
  // A cost-patched constraint graph is exactly the warm-start situation the
  // DSE sweep produces; replay one here against the exact oracle.
  const CsdfGraph g = gcd_ring(16);
  const RepetitionVector rv = compute_repetition_vector(g);
  const std::vector<i64> k{1, 16, 16};
  ConstraintGraph cg = build_constraint_graph(g, rv, k);

  McrpScratch warm_scratch;
  McrpResult warm;
  McrpOptions warm_options;
  warm_options.compute_potentials = false;
  warm_options.howard_warm_start = true;
  McrpOptions cold_options = warm_options;
  cold_options.howard_warm_start = false;

  Rng rng(99);
  for (int step = 0; step < 30; ++step) {
    // Patch a handful of L payloads in place (H untouched — the only
    // mutation the layout stamp lets warm reuse see through).
    for (int edit = 0; edit < 4; ++edit) {
      const auto arc = static_cast<std::int32_t>(rng.uniform(0, cg.graph.arc_count() - 1));
      cg.graph.set_cost(arc, rng.uniform(0, 50));
    }
    solve_max_cycle_ratio(cg.graph, warm_options, warm_scratch, warm);

    McrpScratch cold_scratch;
    McrpResult cold;
    solve_max_cycle_ratio(cg.graph, cold_options, cold_scratch, cold);

    const std::string context = "step " + std::to_string(step);
    EXPECT_EQ(warm.status, cold.status) << context;
    EXPECT_EQ(warm.ratio, cold.ratio) << context;
  }
}

/// A graph given as (src, dst, L, H) arcs.
struct ArcSpec {
  std::int32_t src;
  std::int32_t dst;
  i64 cost;
  Rational time;
};

BivaluedGraph make_bivalued(std::int32_t nodes, const std::vector<ArcSpec>& arcs) {
  BivaluedGraph g(nodes);
  for (const ArcSpec& a : arcs) g.add_arc(a.src, a.dst, a.cost, a.time);
  return g;
}

/// Solves `prev` warm on `scratch` (leaving its critical circuit as the
/// seed), then `next` warm on the same scratch, and returns the second.
McrpResult warm_after(const BivaluedGraph& prev, const BivaluedGraph& next,
                      McrpScratch& scratch) {
  McrpOptions warm;
  warm.howard_warm_start = true;
  McrpResult r;
  solve_max_cycle_ratio(prev, warm, scratch, r);
  solve_max_cycle_ratio(next, warm, scratch, r);
  return r;
}

void expect_matches_cold(const McrpResult& warm, const BivaluedGraph& g,
                         const std::string& context) {
  const McrpResult cold = solve_max_cycle_ratio(g);
  EXPECT_EQ(warm.status, cold.status) << context;
  EXPECT_EQ(warm.ratio, cold.ratio) << context;
}

/// True when `arcs` form a simple circuit of g (consecutive arcs chain, the
/// last closes on the first, no node twice).
bool simple_circuit(const BivaluedGraph& g, const std::vector<std::int32_t>& arcs) {
  std::vector<std::int32_t> nodes;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const auto& e = g.graph().arc(arcs[i]);
    if (e.dst != g.graph().arc(arcs[(i + 1) % arcs.size()]).src) return false;
    nodes.push_back(e.src);
  }
  std::sort(nodes.begin(), nodes.end());
  return !arcs.empty() && std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
}

TEST(WarmStart, SeedWithArcIdsOutOfRangeIsDropped) {
  // The critical circuit of `big` is its 4-cycle on arcs 2..5; `small` has
  // only 3 arcs.
  const BivaluedGraph big = make_bivalued(
      4, {{0, 0, 1, Rational{1}}, {1, 1, 1, Rational{1}}, {0, 1, 9, Rational{1}},
          {1, 2, 9, Rational{1}}, {2, 3, 9, Rational{1}}, {3, 0, 9, Rational{1}}});
  const BivaluedGraph small =
      make_bivalued(2, {{0, 1, 2, Rational{1}}, {1, 0, 4, Rational{2}}, {1, 1, 1, Rational{1}}});
  McrpScratch scratch;
  const McrpResult warm = warm_after(big, small, scratch);
  std::vector<std::int32_t> seed = solve_max_cycle_ratio(big).critical_cycle;
  std::sort(seed.begin(), seed.end());
  ASSERT_EQ(seed, (std::vector<std::int32_t>{2, 3, 4, 5}));
  expect_matches_cold(warm, small, "out-of-range seed");
  EXPECT_EQ(warm.ratio, Rational{2});
}

TEST(WarmStart, SeedWhoseArcsNoLongerChainIsDropped) {
  // Same size, arcs re-pointed: the old 3-cycle's ids now name three
  // unrelated self-loops and one 2-cycle.
  const BivaluedGraph before = make_bivalued(
      3, {{0, 1, 5, Rational{1}}, {1, 2, 5, Rational{1}}, {2, 0, 5, Rational{1}},
          {0, 0, 1, Rational{1}}});
  const BivaluedGraph after = make_bivalued(
      3, {{0, 0, 2, Rational{1}}, {1, 1, 3, Rational{1}}, {2, 1, 7, Rational{2}},
          {1, 2, 1, Rational{2}}});
  McrpScratch scratch;
  const McrpResult warm = warm_after(before, after, scratch);
  expect_matches_cold(warm, after, "unchained seed");
  EXPECT_EQ(warm.ratio, Rational{3});
  EXPECT_TRUE(simple_circuit(after, warm.critical_cycle));
}

TEST(WarmStart, SeedThatRevisitsANodeIsDropped) {
  // The old 4-cycle 0→1→2→3→0 on arcs 0..3 becomes the closed walk
  // 0→1→0→2→0, two co-critical 2-cycles of ratio 3 through node 0. As a seed
  // its ratio would be 3 too, and the loop would confirm the walk.
  const BivaluedGraph before = make_bivalued(
      4, {{0, 1, 3, Rational{1}}, {1, 2, 3, Rational{1}}, {2, 3, 3, Rational{1}},
          {3, 0, 3, Rational{1}}});
  const BivaluedGraph after = make_bivalued(
      4, {{0, 1, 3, Rational{1}}, {1, 0, 3, Rational{1}}, {0, 2, 3, Rational{1}},
          {2, 0, 3, Rational{1}}});
  McrpScratch scratch;
  const McrpResult warm = warm_after(before, after, scratch);
  expect_matches_cold(warm, after, "walk seed");
  EXPECT_EQ(warm.ratio, Rational{3});
  EXPECT_EQ(warm.critical_cycle.size(), 2u);
  EXPECT_TRUE(simple_circuit(after, warm.critical_cycle));
}

TEST(WarmStart, SeedTurnedInfeasibleIsTheWitness) {
  // An H edit on the critical 2-cycle makes H(c) = -1 < 0.
  const BivaluedGraph before = make_bivalued(
      3, {{0, 1, 4, Rational{1}}, {1, 0, 4, Rational{1}}, {2, 2, 1, Rational{1}}});
  const BivaluedGraph after = make_bivalued(
      3, {{0, 1, 4, Rational{1}}, {1, 0, 4, Rational{-2}}, {2, 2, 1, Rational{1}}});
  McrpScratch scratch;
  const McrpResult warm = warm_after(before, after, scratch);
  expect_matches_cold(warm, after, "infeasible seed");
  ASSERT_EQ(warm.status, McrpStatus::Infeasible);
  EXPECT_LT(after.cycle_time(warm.critical_cycle).sign(), 0);
  EXPECT_TRUE(simple_circuit(after, warm.critical_cycle));
}

TEST(WarmStart, ResetWarmStartSolvesColdDownToTheCircuit) {
  // Two co-critical self-loops of ratio 2. The previous graph makes the
  // loop the cold solve does NOT report the seed, so only a dropped seed
  // reproduces the cold circuit.
  const BivaluedGraph tie =
      make_bivalued(2, {{0, 0, 4, Rational{2}}, {1, 1, 6, Rational{3}}});
  const McrpResult cold = solve_max_cycle_ratio(tie);
  ASSERT_EQ(cold.status, McrpStatus::Optimal);
  ASSERT_EQ(cold.critical_cycle.size(), 1u);
  const std::int32_t other = 1 - cold.critical_cycle[0];
  std::vector<ArcSpec> arcs{{0, 0, 4, Rational{2}}, {1, 1, 6, Rational{3}}};
  arcs[static_cast<std::size_t>(other)].cost = 10;
  const BivaluedGraph prev = make_bivalued(2, arcs);

  McrpOptions warm;
  warm.howard_warm_start = true;
  McrpScratch scratch;
  McrpResult r;
  solve_max_cycle_ratio(prev, warm, scratch, r);
  solve_max_cycle_ratio(tie, warm, scratch, r);
  ASSERT_EQ(r.critical_cycle, std::vector<std::int32_t>{other})
      << "the seed must decide the circuit, or this test proves nothing";

  solve_max_cycle_ratio(prev, warm, scratch, r);
  scratch.reset_warm_start();
  solve_max_cycle_ratio(tie, warm, scratch, r);
  EXPECT_EQ(r.status, cold.status);
  EXPECT_EQ(r.ratio, cold.ratio);
  EXPECT_EQ(r.critical_cycle, cold.critical_cycle);
  EXPECT_EQ(r.exact_iterations, cold.exact_iterations);
}

TEST(WarmStart, LayoutStampGatesReuse) {
  BivaluedGraph g(3);
  g.add_arc(0, 1, 5, Rational(1));
  g.add_arc(1, 2, 3, Rational(1));
  g.add_arc(2, 0, 2, Rational(1));

  const std::uint64_t stamp = g.layout_stamp();
  EXPECT_NE(stamp, 0u);
  EXPECT_EQ(g.layout_stamp(), stamp) << "the stamp is stable across queries";

  g.set_cost(1, 9);
  EXPECT_EQ(g.layout_stamp(), stamp) << "a cost rewrite preserves the stamp";

  // Copies share the stamp: their layout is identical by construction.
  BivaluedGraph copy = g;
  EXPECT_EQ(copy.layout_stamp(), stamp);

  // Any structural mutation mints a fresh stamp on the next query.
  g.add_arc(0, 2, 1, Rational(1));
  EXPECT_NE(g.layout_stamp(), stamp);
  const std::uint64_t grown = g.layout_stamp();
  g.reset(3);
  EXPECT_NE(g.layout_stamp(), grown);
  EXPECT_NE(g.layout_stamp(), stamp);

  // The mutated original never re-collides with its copy.
  EXPECT_EQ(copy.layout_stamp(), stamp);
}

// ---- 5. service warm-state lifecycle ----------------------------------------

/// The batch the lifecycle tests share: an execution-time sweep over
/// gcd_ring(12) with one deadlocking marking variant in the middle (token
/// starvation on the ring's only marked buffer).
VariantBatch deadlock_mid_sweep_batch() {
  VariantBatch batch;
  batch.base = gcd_ring(12);
  batch.deltas = exec_time_sweep(batch.base, 1, std::vector<i64>{2, 3, 4, 5});
  GraphDelta starve;
  starve.markings.push_back({2, 0});  // "ca" carries the ring's only tokens
  batch.deltas.insert(batch.deltas.begin() + 2, starve);
  return batch;
}

TEST(WarmStart, DeadlockMidSweepResetsWarmState) {
  const VariantBatch batch = deadlock_mid_sweep_batch();
  ThroughputService service(ServiceOptions{0});  // inline: one worker, in order
  const std::vector<Analysis> warm = service.analyze_variants(batch);
  ASSERT_EQ(warm.size(), batch.deltas.size());

  std::vector<Analysis> cold;
  for (const GraphDelta& d : batch.deltas) {
    cold.push_back(analyze_throughput(make_variant(batch.base, d), Method::KIter));
  }

  ASSERT_EQ(cold[2].outcome, Outcome::Deadlock) << "the starved variant must deadlock";
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const std::string context = "variant " + std::to_string(i);
    EXPECT_EQ(warm[i].outcome, cold[i].outcome) << context;
    EXPECT_EQ(warm[i].quality, cold[i].quality) << context;
    EXPECT_EQ(warm[i].period, cold[i].period) << context;
    EXPECT_EQ(warm[i].throughput, cold[i].throughput) << context;
  }

  // The variant right after the Deadlock must match cold BIT-FOR-BIT —
  // rounds and final K included — because the fallback dropped the seed.
  // That only proves something if a seeded run would have differed:
  ASSERT_GE(cold[3].rounds, 2) << "the post-deadlock variant must need K growth";
  EXPECT_EQ(warm[3].detail, cold[3].detail)
      << "warm state must not survive a Deadlock fallback";
  EXPECT_EQ(warm[3].rounds, cold[3].rounds);

  // ...and the variant before it shows the warm path was actually on.
  EXPECT_EQ(warm[1].rounds, 1) << "the second variant must have been seeded";
  EXPECT_GE(cold[1].rounds, 2);
}

TEST(WarmStart, WarmAnalyzeVariantsValueIdenticalAcrossThreadCounts) {
  Rng rng(41);
  VariantBatch batch = deadlock_mid_sweep_batch();
  std::vector<i64> more;
  for (int v = 0; v < 30; ++v) more.push_back(rng.uniform(1, 15));
  const std::vector<GraphDelta> tail = exec_time_sweep(batch.base, 2, more);
  batch.deltas.insert(batch.deltas.end(), tail.begin(), tail.end());

  std::vector<Analysis> cold;
  for (const GraphDelta& d : batch.deltas) {
    cold.push_back(analyze_throughput(make_variant(batch.base, d), Method::KIter));
  }

  for (const int threads : {0, 2, 5}) {
    ThroughputService service(ServiceOptions{threads});
    const std::vector<Analysis> warm = service.analyze_variants(batch);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const std::string context =
          std::to_string(threads) + " threads, variant " + std::to_string(i);
      EXPECT_EQ(warm[i].outcome, cold[i].outcome) << context;
      EXPECT_EQ(warm[i].quality, cold[i].quality) << context;
      EXPECT_EQ(warm[i].period, cold[i].period) << context;
      EXPECT_EQ(warm[i].throughput, cold[i].throughput) << context;
    }
  }
}

TEST(WarmStart, WarmSweepReducesTotalRounds) {
  VariantBatch batch;
  batch.base = gcd_ring(24);
  std::vector<i64> values;
  for (i64 v = 1; v <= 20; ++v) values.push_back(v);
  batch.deltas = exec_time_sweep(batch.base, 1, values);

  ThroughputService service(ServiceOptions{0});
  const std::vector<Analysis> warm = service.analyze_variants(batch);
  batch.warm_start = false;
  const std::vector<Analysis> cold = service.analyze_variants(batch);
  ASSERT_EQ(warm.size(), cold.size());

  i64 warm_rounds = 0;
  i64 cold_rounds = 0;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].outcome, cold[i].outcome);
    EXPECT_EQ(warm[i].period, cold[i].period);
    warm_rounds += warm[i].rounds;
    cold_rounds += cold[i].rounds;
    EXPECT_GT(warm[i].rounds, 0) << "rounds must be observable through the service";
  }
  EXPECT_LT(warm_rounds, cold_rounds)
      << "the warm sweep must complete in strictly fewer total K-rounds";
}

}  // namespace
}  // namespace kp
