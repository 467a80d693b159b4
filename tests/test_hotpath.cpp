// Hot-path guarantees of the K-iteration round loop:
//
//   1. The stride-based constraint enumeration produces exactly the same
//      (src, dst, cost, time) arc multiset as the brute-force pair scan
//      (build_constraint_graph_reference), on random CSDFGs and on the
//      gcd-structured shapes the optimization targets.
//   2. A KIterWorkspace reused across consecutive analyses yields results
//      identical to fresh-workspace runs.
//   3. A warm K-round (constraint-graph build + MCRP solve) performs zero
//      heap allocations, verified by a global operator new counting hook;
//      so does a warm MCRP solve whose kernel calls start from kept labels,
//      and one that follows a set_time through the graph's edit log.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "alloc_hook.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "core/kperiodic.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"

namespace kp {
namespace {

using ArcTuple = std::tuple<std::int32_t, std::int32_t, i64, Rational>;

std::vector<ArcTuple> canonical_arcs(const ConstraintGraph& cg) {
  std::vector<ArcTuple> out;
  out.reserve(static_cast<std::size_t>(cg.graph.arc_count()));
  for (std::int32_t a = 0; a < cg.graph.arc_count(); ++a) {
    const auto& arc = cg.graph.graph().arc(a);
    out.emplace_back(arc.src, arc.dst, cg.graph.cost(a), cg.graph.time(a));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- 1. stride enumeration == brute-force scan -----------------------------

TEST(StrideEnumeration, MatchesBruteForceOnRandomGraphs) {
  int checked = 0;
  for (u64 seed = 1; checked < 100; ++seed) {
    Rng rng(seed);
    RandomCsdfOptions options;
    options.min_tasks = 2;
    options.max_tasks = 6;
    options.max_phases = 4;
    options.max_q = 9;
    const CsdfGraph g = random_csdf(rng, options);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    std::vector<i64> k(static_cast<std::size_t>(g.task_count()));
    for (auto& v : k) v = rng.uniform(1, 7);

    const ConstraintGraph stride = build_constraint_graph(g, rv, k);
    const ConstraintGraph brute = build_constraint_graph_reference(g, rv, k);
    ASSERT_EQ(stride.graph.node_count(), brute.graph.node_count()) << "seed " << seed;
    ASSERT_EQ(canonical_arcs(stride), canonical_arcs(brute)) << "seed " << seed;
    ++checked;
  }
}

TEST(StrideEnumeration, MatchesBruteForceOnGcdStructuredShapes) {
  for (const i64 g : {2, 7, 16, 64, 129}) {
    const CsdfGraph graph = gcd_ring(g);
    const RepetitionVector rv = compute_repetition_vector(graph);
    ASSERT_TRUE(rv.consistent);
    // K = q̄ along the whole ring: the worst duplicated pair space.
    const std::vector<i64> k{1, g, g};
    const ConstraintGraph stride = build_constraint_graph(graph, rv, k);
    const ConstraintGraph brute = build_constraint_graph_reference(graph, rv, k);
    EXPECT_EQ(canonical_arcs(stride), canonical_arcs(brute)) << "g = " << g;
    // The middle buffer's pair space is g², yet only O(g) constraints
    // survive in total: the whole point of the stride enumeration.
    EXPECT_LE(stride.graph.arc_count(), 6 * g + 6) << "g = " << g;
  }
}

TEST(StrideEnumeration, MatchesBruteForceWithLargeMarkings) {
  // Large markings shift Q̃ far negative — exercises the signed floor/ceil
  // and residue arithmetic.
  Rng rng(7);
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 5;
  options.max_phases = 3;
  options.max_q = 6;
  options.token_slack = 50;
  for (int round = 0; round < 20; ++round) {
    const CsdfGraph g = random_csdf(rng, options);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    std::vector<i64> k(static_cast<std::size_t>(g.task_count()));
    for (auto& v : k) v = rng.uniform(1, 5);
    EXPECT_EQ(canonical_arcs(build_constraint_graph(g, rv, k)),
              canonical_arcs(build_constraint_graph_reference(g, rv, k)))
        << "round " << round;
  }
}

// ---- 2. workspace reuse ----------------------------------------------------

TEST(Workspace, ConsecutiveAnalysesMatchFreshRuns) {
  KIterWorkspace shared;
  Rng rng(11);
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 8;
  options.max_phases = 3;
  options.max_q = 6;
  for (int round = 0; round < 20; ++round) {
    const CsdfGraph g = random_csdf(rng, options);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    const KIterResult with_shared = kiter_throughput(g, rv, KIterOptions{}, shared);
    const KIterResult fresh = kiter_throughput(g, rv, KIterOptions{});
    EXPECT_EQ(with_shared.status, fresh.status) << "round " << round;
    EXPECT_EQ(with_shared.period, fresh.period) << "round " << round;
    EXPECT_EQ(with_shared.throughput, fresh.throughput) << "round " << round;
    EXPECT_EQ(with_shared.k, fresh.k) << "round " << round;
    EXPECT_EQ(with_shared.rounds, fresh.rounds) << "round " << round;
    EXPECT_EQ(with_shared.critical_tasks, fresh.critical_tasks) << "round " << round;
  }
}

TEST(Workspace, TwoAnalysesThroughOneWorkspaceMatchPaperExample) {
  // Back-to-back analyses of the same graph through one workspace must be
  // bit-identical (the second one runs fully warm).
  const CsdfGraph g = figure2_graph();
  const RepetitionVector rv = compute_repetition_vector(g);
  KIterWorkspace ws;
  const KIterResult first = kiter_throughput(g, rv, KIterOptions{}, ws);
  const KIterResult second = kiter_throughput(g, rv, KIterOptions{}, ws);
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.period, second.period);
  EXPECT_EQ(first.k, second.k);
  EXPECT_EQ(first.rounds, second.rounds);
  ASSERT_EQ(first.schedule.starts.size(), second.schedule.starts.size());
  EXPECT_EQ(first.schedule.starts, second.schedule.starts);
}

// ---- 3. zero allocations per warm K-round ----------------------------------

TEST(Workspace, WarmRoundDoesNotAllocate) {
  const CsdfGraph g = gcd_ring(32);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  const std::vector<i64> k{1, 32, 32};
  const McrpOptions mcrp;

  KIterWorkspace ws;
  // Two warming rounds grow every buffer to its steady-state capacity.
  (void)evaluate_k_periodic_round(g, rv, k, mcrp, ws);
  (void)evaluate_k_periodic_round(g, rv, k, mcrp, ws);

  const std::uint64_t before = g_alloc_count.load();
  const KEvalStatus status = evaluate_k_periodic_round(g, rv, k, mcrp, ws);
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(status, KEvalStatus::Feasible);
  EXPECT_EQ(after - before, 0u) << "a warm build+solve round must not touch the heap";
}

TEST(Workspace, WarmRoundDoesNotAllocateOnPaperExample) {
  const CsdfGraph g = figure2_graph();
  const RepetitionVector rv = compute_repetition_vector(g);
  const std::vector<i64> k(static_cast<std::size_t>(g.task_count()), 2);
  const McrpOptions mcrp;

  KIterWorkspace ws;
  (void)evaluate_k_periodic_round(g, rv, k, mcrp, ws);
  (void)evaluate_k_periodic_round(g, rv, k, mcrp, ws);

  const std::uint64_t before = g_alloc_count.load();
  (void)evaluate_k_periodic_round(g, rv, k, mcrp, ws);
  EXPECT_EQ(g_alloc_count.load() - before, 0u);
}

TEST(Workspace, WarmSolveFromKeptLabelsDoesNotAllocate) {
  // WarmRoundDoesNotAllocate runs with default options, which never keep
  // labels; here the solver's warm start is on, so the timed solve's kernel
  // calls start from the labels the warm-up solves kept.
  const CsdfGraph g = gcd_ring(32);
  const RepetitionVector rv = compute_repetition_vector(g);
  ConstraintGraph cg = build_constraint_graph(g, rv, std::vector<i64>{1, 32, 32});
  McrpOptions warm;
  warm.howard_warm_start = true;

  McrpScratch scratch;
  McrpResult r;
  solve_max_cycle_ratio(cg.graph, warm, scratch, r);
  solve_max_cycle_ratio(cg.graph, warm, scratch, r);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  const Rational ratio = r.ratio;
  cg.graph.set_cost(0, cg.graph.cost(0) + 1);  // a neighbouring point
  const std::uint64_t kept_starts = scratch.kept_starts;

  const std::uint64_t before = g_alloc_count.load();
  solve_max_cycle_ratio(cg.graph, warm, scratch, r);
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_GE(r.ratio, ratio);
  EXPECT_GT(scratch.kept_starts, kept_starts) << "the solve must start from kept labels";
  EXPECT_EQ(after - before, 0u) << "a warm solve from kept labels must not touch the heap";
}

TEST(Workspace, WarmSolveAfterSetTimeDoesNotAllocate) {
  // The marking-sweep case: an in-place rewrite moves an H under a kept
  // topology (set_time). The warm solve rescales the edited arc alone and,
  // at an unchanged λ, recomputes only its weight; neither may allocate.
  const CsdfGraph g = gcd_ring(32);
  const RepetitionVector rv = compute_repetition_vector(g);
  ConstraintGraph cg = build_constraint_graph(g, rv, std::vector<i64>{1, 32, 32});
  McrpOptions warm;
  warm.howard_warm_start = true;

  McrpScratch scratch;
  McrpResult r;
  solve_max_cycle_ratio(cg.graph, warm, scratch, r);
  solve_max_cycle_ratio(cg.graph, warm, scratch, r);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  const Rational ratio = r.ratio;
  // A longer H on a cyclic arc off the critical circuit keeps λ* and M.
  std::int32_t arc = -1;
  for (const McrpScratch::ArcRef& a : scratch.cyclic) {
    if (std::find(r.critical_cycle.begin(), r.critical_cycle.end(), a.id) == r.critical_cycle.end()) {
      arc = a.id;
      break;
    }
  }
  ASSERT_GE(arc, 0);
  cg.graph.set_time(arc, cg.graph.time(arc) + Rational(1));
  const std::uint64_t delta_calls = scratch.delta_calls;

  const std::uint64_t before = g_alloc_count.load();
  solve_max_cycle_ratio(cg.graph, warm, scratch, r);
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_EQ(r.ratio, ratio);
  EXPECT_GT(scratch.delta_calls, delta_calls) << "the solve must follow the payload delta";
  EXPECT_EQ(after - before, 0u) << "a warm solve after set_time must not touch the heap";
}

}  // namespace
}  // namespace kp
