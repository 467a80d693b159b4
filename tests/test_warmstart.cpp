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
//      graph solved warm and cold yields identical MCRP results, and kernel
//      calls from kept labels match zero-label calls circuit for circuit
//      through retimes, a splice, region checks and a reset; kept labels
//      that drift into the i64 headroom go back to zero labels; a seed that
//      is no longer a simple circuit of the new graph (ids out of range,
//      arcs that no longer chain, a node visited twice) is dropped; a seed
//      turned infeasible by an H edit is the Infeasible witness; after
//      reset_warm_start() the solve is cold down to its critical circuit;
//      the payload stamp and its edit log gate payload reuse (an unchanged
//      cost logs nothing, an edit retires the stamp and logs its arc,
//      structural mutations empty the log and clear both stamps, copies
//      answer for the states they share, an overflow cannot tell) and a
//      warm solve that follows the log matches one forced down the full
//      path circuit for circuit; a warm solve after set_time keeps the core
//      and rescales H.
//   5. Service lifecycle: a Deadlock variant mid-sweep resets the worker's
//      warm state, so the following variant matches a cold run bit-for-bit;
//      warm analyze_variants is value-identical to cold per-variant runs at
//      thread counts {0, 2, 5}; and the warm sweep completes in strictly
//      fewer total rounds than the cold one (the point of the exercise).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
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

/// Expects two MCRP results to agree on everything a caller reads.
void expect_same_result(const McrpResult& a, const McrpResult& b, const std::string& context) {
  EXPECT_EQ(a.status, b.status) << context;
  EXPECT_EQ(a.ratio, b.ratio) << context;
  EXPECT_EQ(a.critical_cycle, b.critical_cycle) << context;
  EXPECT_EQ(a.iterations, b.iterations) << context;
  EXPECT_EQ(a.exact_iterations, b.exact_iterations) << context;
}

/// Expects two scratches to have started and re-run the same kernel calls
/// from kept labels.
void expect_same_kept_counts(const McrpScratch& a, const McrpScratch& b,
                             const std::string& context) {
  EXPECT_EQ(a.kept_starts, b.kept_starts) << context;
  EXPECT_EQ(a.kept_reruns, b.kept_reruns) << context;
}

TEST(WarmStart, McrpWarmStartMatchesColdThroughCostPatches) {
  // A cost-patched constraint graph is exactly the warm-start situation the
  // DSE sweep produces; replay one here against the exact oracle. A twin
  // warm scratch drops its kept labels before every call, so each of its
  // kernel calls starts from zero labels: kept labels must change nothing,
  // down to the circuit and both iteration counts. A second twin forgets
  // its payload stamp before every call, so it rescales every cyclic arc,
  // recomputes every weight and tests every arc against its kept labels:
  // the payload delta the warm scratch follows must change nothing either,
  // down to which calls start from kept labels. The sweep also retimes
  // arcs (λ's denominator and M move), splices in a new arc list over the
  // same nodes, checks has_positive_cycle between solves on the graph's
  // costs and on costs of its own (which drop the weights' key), floods
  // the edit log once, and resets every scratch midway.
  const CsdfGraph g = gcd_ring(16);
  const RepetitionVector rv = compute_repetition_vector(g);
  const std::vector<i64> k{1, 16, 16};
  BivaluedGraph graph = build_constraint_graph(g, rv, k).graph;

  McrpScratch warm_scratch;
  McrpScratch twin_scratch;
  McrpScratch full_scratch;
  McrpResult warm;
  McrpResult twin;
  McrpResult full;
  McrpOptions warm_options;
  warm_options.howard_warm_start = true;
  McrpOptions cold_options = warm_options;
  cold_options.howard_warm_start = false;

  McrpScratch cold_scratch;
  Rng rng(99);
  i128 last_den = 1;
  int den_moves = 0;
  int checks = 0;
  int own_checks = 0;
  std::vector<i64> own_costs;
  for (int step = 0; step < 60; ++step) {
    const std::string context = "step " + std::to_string(step);
    const std::uint64_t kept_before = warm_scratch.kept_starts;
    const std::uint64_t delta_before = warm_scratch.delta_calls;
    if (step == 20) {
      // A splice that keeps the node count: a new arc list, with parallel
      // copies of the first two arcs appended, and nothing else changed.
      BivaluedGraph spliced(graph.node_count());
      spliced.append_arcs_shifted(graph, 0, graph.arc_count(), 0, 0);
      spliced.append_arcs_shifted(graph, 0, 2, 0, 0);
      graph = std::move(spliced);
    }
    if (step == 40) {
      warm_scratch.reset_warm_start();
      twin_scratch.reset_warm_start();
      full_scratch.reset_warm_start();
    }
    // Patch a handful of L payloads in place (H untouched).
    for (int edit = 0; step != 20 && edit < 4; ++edit) {
      const auto arc = static_cast<std::int32_t>(rng.uniform(0, graph.arc_count() - 1));
      graph.set_cost(arc, rng.uniform(0, 50));
    }
    const bool flood = step == 50;
    if (flood) {
      // One edit more than the log holds: the warm scratch must take the
      // full path for this solve.
      for (std::int32_t e = 0; e <= graph.arc_count(); ++e) {
        const std::int32_t arc = e % graph.arc_count();
        graph.set_cost(arc, (graph.cost(arc) + 1) % 51);
      }
      EXPECT_FALSE(graph.edits_since(warm_scratch.warm_payload).has_value()) << context;
    }
    const bool retime = step > 20 && step % 4 == 3;
    if (retime) {
      // Lengthen one arc's H by 1/d: no circuit turns infeasible, and the
      // new denominator moves M, λ's denominator or both.
      const auto arc = static_cast<std::int32_t>(rng.uniform(0, graph.arc_count() - 1));
      const i64 d = std::vector<i64>{2, 3, 5, 7}[static_cast<std::size_t>(rng.uniform(0, 3))];
      graph.set_time(arc, graph.time(arc) + Rational::of(1, d));
    }
    twin_scratch.kept64.clear();
    full_scratch.warm_payload = 0;
    solve_max_cycle_ratio(graph, warm_options, warm_scratch, warm);
    solve_max_cycle_ratio(graph, warm_options, twin_scratch, twin);
    solve_max_cycle_ratio(graph, warm_options, full_scratch, full);
    expect_same_result(warm, twin, context);
    expect_same_result(warm, full, context);
    expect_same_kept_counts(warm_scratch, full_scratch, context);
    if (step == 20) {
      EXPECT_GT(warm_scratch.kept_starts, kept_before) << "the splice must keep the labels";
    }
    if (step == 40) {
      EXPECT_EQ(warm_scratch.kept_starts, kept_before) << "the reset must drop the labels";
    }
    if (flood) {
      EXPECT_EQ(warm_scratch.delta_calls, delta_before) << "a flooded log cannot tell";
    }

    McrpResult cold;
    solve_max_cycle_ratio(graph, cold_options, cold_scratch, cold);
    EXPECT_EQ(warm.status, cold.status) << context;
    EXPECT_EQ(warm.ratio, cold.ratio) << context;

    if (warm.status != McrpStatus::Optimal || warm.ratio.is_zero()) continue;
    if (retime && warm.ratio.den() != last_den) ++den_moves;
    last_den = warm.ratio.den();
    // Region-style checks between solves: a "no" at λ* and a "yes" just
    // below it, from kept labels on one scratch and zero on another, and a
    // check at λ* on costs of its own, which the next solve (seeded at λ*)
    // must not mistake for the graph's weights.
    own_costs.assign(graph.costs().begin(), graph.costs().end());
    for (std::size_t a = static_cast<std::size_t>(step) % 3; a < own_costs.size(); a += 3) {
      own_costs[a] += 7;
    }
    const std::vector<std::pair<Rational, std::span<const i64>>> probes{
        {warm.ratio, graph.costs()},
        {warm.ratio * Rational::of(99, 100), graph.costs()},
        {warm.ratio, own_costs}};
    for (const auto& [lambda, costs] : probes) {
      const bool own = costs.data() != graph.costs().data();
      twin_scratch.kept64.clear();
      full_scratch.warm_payload = 0;
      const bool warm_answer = has_positive_cycle(graph, costs, lambda, warm_scratch);
      const bool twin_answer = has_positive_cycle(graph, costs, lambda, twin_scratch);
      const bool full_answer = has_positive_cycle(graph, costs, lambda, full_scratch);
      if (!own) {
        EXPECT_EQ(warm_answer, lambda != warm.ratio) << context;
      }
      EXPECT_EQ(warm_answer, twin_answer) << context;
      EXPECT_EQ(warm_answer, full_answer) << context;
      EXPECT_EQ(warm_scratch.bf_cycle, twin_scratch.bf_cycle) << context;
      EXPECT_EQ(warm_scratch.bf_cycle, full_scratch.bf_cycle) << context;
      expect_same_kept_counts(warm_scratch, full_scratch, context);
      if (own) {
        EXPECT_EQ(warm_scratch.weights_payload, 0u) << "own costs must drop the weights' key";
        ++own_checks;
      }
      ++checks;
    }
  }
  EXPECT_GE(den_moves, 3) << "the retimes must move λ's denominator";
  EXPECT_GE(checks, 120);
  EXPECT_GE(own_checks, 40);
  // The kept-label path must actually run: calls from kept labels, and
  // "yes" answers from them re-run from zero labels. So must the payload
  // delta, and never on the scratch that forgets its payload stamp.
  EXPECT_GE(warm_scratch.kept_starts, 60u);
  EXPECT_GE(warm_scratch.kept_reruns, 3u);
  EXPECT_GE(warm_scratch.delta_calls, 30u);
  EXPECT_EQ(full_scratch.delta_calls, 0u);
  EXPECT_EQ(cold_scratch.kept_starts, 0u) << "a cold solve starts every call from zero labels";

  // A cold solve keeps no labels and drops those a warm solve kept, so the
  // warm solve after it starts from zero; the one after that does not.
  McrpScratch mixed;
  McrpResult r;
  solve_max_cycle_ratio(graph, warm_options, mixed, r);
  solve_max_cycle_ratio(graph, cold_options, mixed, r);
  solve_max_cycle_ratio(graph, warm_options, mixed, r);
  EXPECT_EQ(mixed.kept_starts, 0u);
  solve_max_cycle_ratio(graph, warm_options, mixed, r);
  EXPECT_GT(mixed.kept_starts, 0u);
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

/// The graph's edit log since `stamp` as a vector, or nullopt when it
/// cannot tell.
std::optional<std::vector<std::int32_t>> edits_since(const BivaluedGraph& g,
                                                     std::uint64_t stamp) {
  const auto edits = g.edits_since(stamp);
  if (!edits) return std::nullopt;
  return std::vector<std::int32_t>(edits->begin(), edits->end());
}

TEST(WarmStart, PayloadStampAndEditLogGateReuse) {
  using Edits = std::vector<std::int32_t>;
  BivaluedGraph g(3);
  g.add_arc(0, 1, 5, Rational(1));
  g.add_arc(1, 2, 3, Rational(1));
  g.add_arc(2, 0, 2, Rational(1));
  std::vector<std::uint64_t> stamps;

  const std::uint64_t stamp = g.payload_stamp();
  const std::uint64_t topology = g.topology_stamp();
  stamps.insert(stamps.end(), {stamp, topology});
  EXPECT_NE(stamp, 0u);
  EXPECT_NE(topology, 0u);
  EXPECT_EQ(g.payload_stamp(), stamp) << "the stamp is stable across queries";
  EXPECT_EQ(g.topology_stamp(), topology);
  EXPECT_EQ(edits_since(g, stamp), Edits{}) << "nothing was edited since the current stamp";
  EXPECT_EQ(edits_since(g, 0), std::nullopt);

  // Writing the cost an arc already has is no edit: nothing is logged and
  // the stamp survives.
  g.set_cost(1, 3);
  EXPECT_EQ(g.payload_stamp(), stamp);
  EXPECT_EQ(edits_since(g, stamp), Edits{});

  // A changed payload retires the stamp (the topology stays), and the log
  // names exactly the edited arcs, in edit order.
  g.set_cost(1, 9);
  g.set_time(2, Rational::of(1, 2));
  EXPECT_EQ(g.topology_stamp(), topology) << "a payload rewrite preserves the topology";
  const std::uint64_t edited = g.payload_stamp();
  stamps.push_back(edited);
  EXPECT_NE(edited, stamp);
  EXPECT_EQ(edits_since(g, stamp), (Edits{1, 2}));
  EXPECT_EQ(edits_since(g, edited), Edits{});
  // The in-place rewrite's set_cost then set_time on one arc logs it once.
  g.set_cost(0, 7);
  g.set_time(0, Rational(2));
  EXPECT_EQ(edits_since(g, edited), Edits{0});
  EXPECT_EQ(edits_since(g, stamp), (Edits{1, 2, 0}));

  // A copy answers for every state it shares with its source, and each
  // side then logs only its own edits.
  const std::uint64_t shared = g.payload_stamp();
  stamps.push_back(shared);
  BivaluedGraph copy = g;
  EXPECT_EQ(copy.payload_stamp(), shared);
  EXPECT_EQ(copy.topology_stamp(), topology);
  EXPECT_EQ(edits_since(copy, stamp), (Edits{1, 2, 0}));
  g.set_cost(2, 11);
  copy.set_cost(0, 1);
  EXPECT_EQ(edits_since(g, shared), Edits{2});
  EXPECT_EQ(edits_since(copy, shared), Edits{0});
  stamps.insert(stamps.end(), {g.payload_stamp(), copy.payload_stamp()});
  EXPECT_NE(g.payload_stamp(), copy.payload_stamp());
  EXPECT_EQ(edits_since(g, copy.payload_stamp()), std::nullopt) << "a state g never had";
  const std::uint64_t copy_stamp = copy.payload_stamp();

  // Every structural mutation empties the log and mints fresh stamps.
  auto expect_structural = [&](const char* what, auto mutate) {
    const std::uint64_t payload_before = g.payload_stamp();
    const std::uint64_t topology_before = g.topology_stamp();
    mutate();
    EXPECT_EQ(edits_since(g, payload_before), std::nullopt) << what;
    EXPECT_EQ(edits_since(g, stamp), std::nullopt) << what;
    EXPECT_NE(g.payload_stamp(), payload_before) << what;
    EXPECT_NE(g.topology_stamp(), topology_before) << what;
    stamps.insert(stamps.end(), {g.payload_stamp(), g.topology_stamp()});
  };
  expect_structural("add_arc", [&] { g.add_arc(0, 2, 1, Rational(1)); });
  expect_structural("reset", [&] { g.reset(3); });
  expect_structural("append_arcs_shifted",
                    [&] { g.append_arcs_shifted(copy, 0, copy.arc_count(), 0, 0); });
  EXPECT_NE(g.topology_stamp(), topology) << "a spliced copy is a new topology";
  // The mutated original never re-collides with its copy.
  EXPECT_EQ(copy.payload_stamp(), copy_stamp);
  EXPECT_EQ(copy.topology_stamp(), topology);
  EXPECT_EQ(edits_since(copy, shared), Edits{0});

  // More edits than the log holds (one per arc): it cannot tell, and the
  // next stamp answers again.
  const std::uint64_t before_flood = g.payload_stamp();
  for (std::int32_t i = 0; i <= g.arc_count(); ++i) g.set_cost(i % 2, 100 + i);
  EXPECT_EQ(edits_since(g, before_flood), std::nullopt);
  const std::uint64_t after_flood = g.payload_stamp();
  g.set_cost(2, 1);
  EXPECT_EQ(edits_since(g, after_flood), Edits{2});
  stamps.push_back(after_flood);

  // The log keeps a few newest marks: a long run of observed edits drops
  // the oldest states, while the newest keep answering.
  std::vector<std::uint64_t> run;
  for (int step = 0; step < 8; ++step) {
    run.push_back(g.payload_stamp());
    g.set_cost(step % 3, 200 + step);
  }
  EXPECT_EQ(edits_since(g, run[0]), std::nullopt);
  EXPECT_EQ(edits_since(g, run[7]), Edits{1});
  EXPECT_EQ(edits_since(g, run[6]), (Edits{0, 1}));
  stamps.insert(stamps.end(), run.begin(), run.end());

  // Stamps never repeat, across kinds and graphs.
  std::sort(stamps.begin(), stamps.end());
  EXPECT_EQ(std::adjacent_find(stamps.begin(), stamps.end()), stamps.end());
}

TEST(WarmStart, WarmSolveAfterSetTimeRescalesH) {
  // Two 2-cycles with integral H (M = 1): 0⇄1 of ratio 8/2 is critical,
  // 1⇄2 has ratio 6/2. Setting H = 1/3 on arc 1→2 keeps the topology but
  // introduces a new denominator (M = 3) and lifts 1⇄2 to 6/(4/3) = 9/2.
  BivaluedGraph g = make_bivalued(
      3, {{0, 1, 5, Rational{1}}, {1, 0, 3, Rational{1}}, {1, 2, 4, Rational{1}},
          {2, 1, 2, Rational{1}}});
  McrpOptions warm;
  warm.howard_warm_start = true;
  McrpScratch scratch;
  McrpResult r;
  solve_max_cycle_ratio(g, warm, scratch, r);
  ASSERT_EQ(r.ratio, Rational{4});
  ASSERT_EQ(scratch.time_scale, 1);

  const std::uint64_t topology = g.topology_stamp();
  g.set_time(2, Rational::of(1, 3));
  ASSERT_EQ(g.topology_stamp(), topology) << "the warm solve must keep the core";
  solve_max_cycle_ratio(g, warm, scratch, r);
  expect_matches_cold(r, g, "retimed");
  EXPECT_EQ(r.ratio, Rational::of(9, 2));
  EXPECT_EQ(scratch.time_scale, 3) << "M must be re-derived for the new denominator";
  EXPECT_TRUE(has_positive_cycle(g, g.costs(), Rational{4}, scratch));
  EXPECT_FALSE(has_positive_cycle(g, g.costs(), Rational::of(9, 2), scratch));
}

TEST(WarmStart, WarmSolveAfterSetTimeKeepsADividingScale) {
  // H denominators 2 and 3 give M = 6, and 0⇄1 (ratio 8/(3/2)) is
  // critical. Retiming arc 0 to 2/3 leaves denominators whose lcm is 3,
  // which divides the kept M: M stays 6. Retiming it to 1/5 does not
  // divide 6, so M is re-derived as lcm(5, 3) = 15.
  BivaluedGraph g = make_bivalued(
      3, {{0, 1, 5, Rational::of(1, 2)}, {1, 0, 3, Rational{1}}, {1, 2, 4, Rational::of(1, 3)},
          {2, 1, 2, Rational{1}}});
  McrpOptions warm;
  warm.howard_warm_start = true;
  McrpScratch scratch;
  McrpResult r;
  solve_max_cycle_ratio(g, warm, scratch, r);
  ASSERT_EQ(r.ratio, Rational::of(16, 3));
  ASSERT_EQ(scratch.time_scale, 6);

  g.set_time(0, Rational::of(2, 3));
  solve_max_cycle_ratio(g, warm, scratch, r);
  expect_matches_cold(r, g, "retimed to 2/3");
  EXPECT_EQ(r.ratio, Rational::of(24, 5));
  EXPECT_EQ(scratch.time_scale, 6) << "3 divides M: M is kept";
  EXPECT_FALSE(has_positive_cycle(g, g.costs(), r.ratio, scratch));
  EXPECT_TRUE(has_positive_cycle(g, g.costs(), Rational::of(47, 10), scratch));

  g.set_time(0, Rational::of(1, 5));
  solve_max_cycle_ratio(g, warm, scratch, r);
  expect_matches_cold(r, g, "retimed to 1/5");
  EXPECT_EQ(r.ratio, Rational::of(20, 3));
  EXPECT_EQ(scratch.time_scale, 15) << "5 does not divide M: M must be re-derived";
  EXPECT_FALSE(has_positive_cycle(g, g.costs(), r.ratio, scratch));
  EXPECT_TRUE(has_positive_cycle(g, g.costs(), Rational::of(13, 2), scratch));
}

TEST(WarmStart, KeptLabelsDriftUntilTheBoundSendsThemBack) {
  // Every circuit of this 4-node graph runs through arc 3→0, the only one
  // with H ≠ 0 (H = 1): every ratio, and so q·M, is an integer, and each
  // warm call may start from the labels the previous one kept. The costs
  // sit near the i64 per-call bound B <= INT64_MAX/6. Arc 0→2 rises above
  // and falls below the value that makes 0→2→3→0 beat the ring
  // 0→1→2→3→0, so the critical circuit flips, and the kept labels drift
  // upward until max|d0| + 5·B <= INT64_MAX fails and a call starts from
  // zero labels again. A twin scratch that drops its kept labels before
  // every solve must agree on every result (under UBSan this also checks
  // the warm label sums for overflow).
  const i64 x = INT64_MAX / 40;
  BivaluedGraph g = make_bivalued(4, {{0, 1, x, Rational{0}},
                                      {1, 2, x, Rational{0}},
                                      {2, 3, x, Rational{0}},
                                      {3, 0, x, Rational{1}},
                                      {0, 2, x, Rational{0}},
                                      {1, 3, x, Rational{0}}});
  McrpOptions warm;
  warm.howard_warm_start = true;
  McrpScratch scratch;
  McrpScratch twin_scratch;
  McrpResult r;
  McrpResult twin;
  Rng rng(5);
  for (int step = 0; step < 1200; ++step) {
    // Above 2x, 0→2→3→0 weighs more than the ring's 4x.
    const i64 chord = step % 2 == 0 ? 2 * x + rng.uniform(1, x / 8) : x + rng.uniform(0, x / 2);
    g.set_cost(4, chord);
    solve_max_cycle_ratio(g, warm, scratch, r);
    twin_scratch.kept64.clear();
    solve_max_cycle_ratio(g, warm, twin_scratch, twin);
    const std::string context = "step " + std::to_string(step);
    ASSERT_EQ(r.status, McrpStatus::Optimal) << context;
    EXPECT_EQ(r.ratio, Rational{std::max(4 * x, chord + 2 * x)}) << context;
    expect_same_result(r, twin, context);
  }
  EXPECT_GE(scratch.kept_starts, 1200u);
  EXPECT_GE(scratch.kept_reruns, 600u);
  EXPECT_GE(scratch.kept_bound_resets, 1u) << "the labels must drift into the bound";
}

TEST(WarmStart, KeptLabelsUseTheWholeWarmHeadroom) {
  // A bidirected path 0⇄1⇄…⇄5 whose forward arcs weigh +x and backward arcs
  // -x, or the reverse: every 2-cycle weighs 0, and flipping the signs
  // between region-style checks (λ = 0, so W = L) lifts every kept label by
  // 5x, the most a call from kept labels can add (n-1 arcs of weight B = x).
  // x is chosen so that some kept peak lands in the last 3x of the warm
  // headroom, where only the (n+1)·B rule sends the call back to zero
  // labels: under UBSan a looser rule overflows a label sum here.
  constexpr std::int32_t n = 6;
  const i64 x = static_cast<i64>(INT64_MAX / 24.5);
  BivaluedGraph g(n);
  for (std::int32_t v = 0; v + 1 < n; ++v) {
    g.add_arc(v, v + 1, 0, Rational{0});
    g.add_arc(v + 1, v, 0, Rational{1});
  }
  std::vector<i64> costs(static_cast<std::size_t>(g.arc_count()));
  McrpScratch scratch;
  McrpScratch twin_scratch;
  i64 highest = 0;
  for (int call = 0; call < 200; ++call) {
    const i64 sign = call % 2 == 0 ? 1 : -1;
    for (std::size_t a = 0; a < costs.size(); ++a) costs[a] = a % 2 == 0 ? sign * x : -sign * x;
    // Every seventh check closes one positive 2-cycle: a "yes".
    const bool positive = call % 7 == 6;
    if (positive) costs[4] = -costs[5] + 1;
    twin_scratch.kept64.clear();
    const bool answer = has_positive_cycle(g, costs, Rational{0}, scratch);
    const std::string context = "call " + std::to_string(call);
    EXPECT_EQ(answer, positive) << context;
    EXPECT_EQ(has_positive_cycle(g, costs, Rational{0}, twin_scratch), answer) << context;
    EXPECT_EQ(scratch.bf_cycle, twin_scratch.bf_cycle) << context;
    if (!scratch.kept64.empty()) {
      highest = std::max(highest, *std::max_element(scratch.kept64.begin(), scratch.kept64.end()));
    }
  }
  EXPECT_GT(highest, INT64_MAX - 5 * x) << "the kept labels must reach the headroom's end";
  EXPECT_GE(scratch.kept_starts, 100u);
  EXPECT_GE(scratch.kept_reruns, 10u);
  EXPECT_GE(scratch.kept_bound_resets, 20u);
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
