// Tests for the MCRP solvers: the exact cycle-ratio engine (cold and
// seeded from a previous critical circuit) and Karp's max cycle mean,
// cross-checked on random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "gen/categories.hpp"
#include "io/text_format.hpp"
#include "mcrp/cycle_ratio.hpp"
#include "mcrp/karp.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

BivaluedGraph single_loop(i64 cost, const Rational& time) {
  BivaluedGraph g(1);
  g.add_arc(0, 0, cost, time);
  return g;
}

TEST(CycleRatio, SelfLoop) {
  const McrpResult r = solve_max_cycle_ratio(single_loop(6, Rational{2}));
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_EQ(r.ratio, Rational{3});
  EXPECT_EQ(r.critical_cycle.size(), 1u);
}

TEST(CycleRatio, PicksMaxOfTwoLoops) {
  BivaluedGraph g(2);
  g.add_arc(0, 0, 3, Rational{1});                 // ratio 3
  g.add_arc(1, 1, 10, Rational{4});                // ratio 5/2 < 3
  const McrpResult r = solve_max_cycle_ratio(g);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_EQ(r.ratio, Rational{3});
}

TEST(CycleRatio, TwoArcCycleExactFraction) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 5, Rational::of(1, 3));
  g.add_arc(1, 0, 2, Rational::of(1, 7));
  const McrpResult r = solve_max_cycle_ratio(g);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  // (5+2) / (1/3+1/7) = 7 / (10/21) = 147/10
  EXPECT_EQ(r.ratio, Rational::of(147, 10));
  EXPECT_EQ(r.critical_cycle.size(), 2u);
}

TEST(CycleRatio, NoCycle) {
  BivaluedGraph g(3);
  g.add_arc(0, 1, 5, Rational{1});
  g.add_arc(1, 2, 5, Rational{1});
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::NoCycle);
}

TEST(CycleRatio, InfeasibleNegativeTime) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 1, Rational{1});
  g.add_arc(1, 0, 1, Rational{-2});  // H(c) = -1 < 0, L(c) = 2 > 0
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
  EXPECT_EQ(r.critical_cycle.size(), 2u);
}

TEST(CycleRatio, InfeasibleZeroTimePositiveCost) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 1, Rational{1});
  g.add_arc(1, 0, 1, Rational{-1});  // H(c) = 0, L(c) = 2
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
}

TEST(CycleRatio, InfeasibleHiddenBehindFeasibleLoop) {
  // The negative-H circuit has weight 0 at λ=0 and only becomes visible
  // once λ rises — the solver must still find it.
  BivaluedGraph g(3);
  g.add_arc(0, 0, 4, Rational{2});   // feasible, ratio 2
  g.add_arc(1, 2, 3, Rational{1});
  g.add_arc(2, 1, 3, Rational{-2});  // H(c) = -1 < 0: infeasible
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
}

TEST(CycleRatio, ZeroCostCircuitsGiveZeroRatio) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 0, Rational{1});
  g.add_arc(1, 0, 0, Rational{1});
  const McrpResult r = solve_max_cycle_ratio(g);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_TRUE(r.ratio.is_zero());
  EXPECT_FALSE(r.critical_cycle.empty());
}

TEST(CycleRatio, ZeroCostNegativeTimeIsInfeasible) {
  // L(c) = 0, H(c) < 0 admits only the degenerate Ω = 0.
  BivaluedGraph g(2);
  g.add_arc(0, 1, 0, Rational{1});
  g.add_arc(1, 0, 0, Rational{-2});
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
}

/// Expects `s` to be the least nonnegative potentials of `g` at λ, with
/// checks that share no code with the kernel: S >= 0, every arc satisfied
/// (S_v - S_u >= L(e) - λ·H(e)), and every node reachable from a
/// zero-potential node along tight arcs (S_v = S_u + L(e) - λ·H(e)). Any
/// feasible S' >= 0 is at least the weight of such a path, so S <= S'.
void expect_least_potentials(const BivaluedGraph& g, const Rational& lambda,
                             const std::vector<Rational>& s) {
  const auto n = static_cast<std::size_t>(g.node_count());
  ASSERT_EQ(s.size(), n);
  std::vector<std::vector<std::size_t>> tight(n);  // heads of each node's tight arcs
  for (std::int32_t a = 0; a < g.arc_count(); ++a) {
    const auto src = static_cast<std::size_t>(g.graph().arc(a).src);
    const auto dst = static_cast<std::size_t>(g.graph().arc(a).dst);
    const Rational bound = s[src] + (Rational{g.cost(a)} - lambda * g.time(a));
    EXPECT_GE(s[dst], bound) << "arc " << a;
    if (s[dst] == bound) tight[src].push_back(dst);
  }
  std::vector<bool> reached(n, false);
  std::vector<std::size_t> stack;
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_GE(s[v], Rational{0}) << "node " << v;
    if (s[v].is_zero()) {
      reached[v] = true;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (const std::size_t v : tight[u]) {
      if (!reached[v]) {
        reached[v] = true;
        stack.push_back(v);
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) EXPECT_TRUE(reached[v]) << "node " << v;
}

TEST(CycleRatio, PotentialsSatisfyAllConstraints) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto n = static_cast<std::int32_t>(rng.uniform(3, 15));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 3 * n; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(0, 10),
                Rational(rng.uniform(1, 8), rng.uniform(1, 4)));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    std::vector<Rational> potentials;
    compute_mcrp_potentials(g, r.ratio, potentials);
    expect_least_potentials(g, r.ratio, potentials);
  }
  // K-Iter's final constraint graphs of Table 1 graphs whose solves leave
  // i64 (test_gen's seeds): the pass at CSDF scale, on Rational labels and
  // at M > 2^62.
  std::vector<NamedGraph> table1 = make_mimic_dsp(1, 30);
  for (NamedGraph& ng : make_lg_hsdf(2, 20)) table1.push_back(std::move(ng));
  KIterOptions no_schedule;
  no_schedule.want_schedule = false;
  KIterWorkspace ws;
  int rational_labels = 0;
  int wide_scale = 0;
  for (const NamedGraph& ng : table1) {
    SCOPED_TRACE(ng.name);
    const CsdfGraph g = add_serialization_buffers(ng.graph);
    const KIterResult r = kiter_throughput(g, compute_repetition_vector(g), no_schedule, ws);
    ASSERT_EQ(r.status, ThroughputStatus::Optimal);
    const i128 m = ws.mcrp.time_scale;
    if (m != 0 && m <= (i128{1} << 62)) continue;
    ++(m == 0 ? rational_labels : wide_scale);
    std::vector<Rational> potentials;
    compute_mcrp_potentials(ws.constraints.graph, r.period, potentials);
    expect_least_potentials(ws.constraints.graph, r.period, potentials);
  }
  EXPECT_GT(rational_labels, 0);
  EXPECT_GT(wide_scale, 0);
  // A graph without arcs: all-zero start times, no kernel call.
  std::vector<Rational> potentials;
  compute_mcrp_potentials(BivaluedGraph(3), Rational{5}, potentials);
  EXPECT_EQ(potentials, std::vector<Rational>(3));
  // Below the optimum a positive circuit remains: the invariant breach.
  const BivaluedGraph loop = single_loop(6, Rational{2});
  EXPECT_THROW(compute_mcrp_potentials(loop, Rational{2}, potentials), SolverError);
}

TEST(CycleRatio, CriticalCycleAchievesRatio) {
  Rng rng(123);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(3, 12));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 2 * n; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(1, 9),
                Rational(rng.uniform(1, 9), 1));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    const Rational check =
        Rational(i128{g.cycle_cost(r.critical_cycle)}, 1) / g.cycle_time(r.critical_cycle);
    EXPECT_EQ(check, r.ratio);
    // The cycle is an actual path: consecutive arcs share endpoints.
    for (std::size_t i = 0; i < r.critical_cycle.size(); ++i) {
      const auto& cur = g.graph().arc(r.critical_cycle[i]);
      const auto& nxt = g.graph().arc(r.critical_cycle[(i + 1) % r.critical_cycle.size()]);
      EXPECT_EQ(cur.dst, nxt.src);
    }
  }
}

// A valid graph on which a path-length cycle rule (a node whose recorded
// relaxation path reaches n arcs must sit under a parent-pointer cycle)
// finds none: the lengths were recorded under since-replaced parents, so
// the current parent chain ends at a root. The subtree-disassembly kernel
// reports a circuit as soon as it closes.
TEST(CycleRatio, PositiveCycleFoundWhereParentChainIsStale) {
  const CsdfGraph g = parse_csdf(R"(csdf "breach"
task t0 durations [49,2,22]
task t1 durations [32]
task t2 durations [49]
buffer "a" t1 -> t0 prod [21] cons [2,5,5] tokens 0
buffer "b" t2 -> t1 prod [12] cons [3] tokens 0
buffer "c" t0 -> t2 prod [1,0,0] cons [7] tokens 14
buffer "d" t1 -> t0 prod [14] cons [2,2,4] tokens 62
)");
  AnalysisOptions warm;
  warm.kiter.mcrp.howard_warm_start = true;
  for (const AnalysisOptions& o : {AnalysisOptions{}, warm}) {
    const Analysis a = analyze_throughput(g, Method::KIter, o);
    ASSERT_EQ(a.outcome, Outcome::Value) << a.detail;
    EXPECT_EQ(a.period, Rational{511});
  }

  const CsdfGraph sg = add_serialization_buffers(g);
  const RepetitionVector rv = compute_repetition_vector(sg);
  const ConstraintGraph cg =
      build_constraint_graph(sg, rv, std::vector<i64>(static_cast<std::size_t>(sg.task_count()), 1));
  ASSERT_EQ(cg.graph.node_count(), 5);
  ASSERT_EQ(cg.graph.arc_count(), 13);
  EXPECT_EQ(solve_max_cycle_ratio(cg.graph).ratio, Rational{511});
  McrpScratch scratch;
  EXPECT_TRUE(has_positive_cycle(cg.graph, cg.graph.costs(), Rational::of(1533, 10), scratch));
  EXPECT_FALSE(has_positive_cycle(cg.graph, cg.graph.costs(), Rational{511}, scratch));
}

// Eight disjoint 2-cycles whose H denominators are distinct primes near
// 2^20: their lcm (~2^160) does not fit i128, so the exact phase can only
// run on Rational labels — cold, then warm from its own critical circuit.
TEST(CycleRatio, RationalLabelsWhenTimeScaleOverflows) {
  const std::vector<i64> primes{1048573, 1048571, 1048559, 1048549,
                                1048517, 1048507, 1048447, 1048433};
  BivaluedGraph g(16);
  for (std::int32_t i = 0; i < 8; ++i) {
    const Rational h = Rational::of(1, primes[static_cast<std::size_t>(i)]);
    g.add_arc(2 * i, 2 * i + 1, i + 1, h);
    g.add_arc(2 * i + 1, 2 * i, 1, h);
  }
  McrpOptions warm;
  warm.howard_warm_start = true;
  McrpScratch scratch;
  McrpResult r;
  for (const McrpOptions& o : {McrpOptions{}, warm}) {
    solve_max_cycle_ratio(g, o, scratch, r);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    EXPECT_EQ(r.ratio, Rational::of(9435897, 2));  // 9 / (2/1048433)
    std::vector<std::int32_t> arcs = r.critical_cycle;
    std::sort(arcs.begin(), arcs.end());
    EXPECT_EQ(arcs, (std::vector<std::int32_t>{14, 15}));
  }
}

// One graph at each of the kernel's three label widths: as built (i64),
// with every cost scaled past the i64 bound (i128), and with H
// denominators whose lcm exceeds i128 (Rational). Eight 2-cycles
// 2i ⇄ 2i+1 of ratio (i+2)/2 are chained into one component by arcs
// 2i+1 → 2i+2 of cost 0 and H 64. The Rational variant splits each pair's
// H into 1 ± 1/p_i for distinct primes p_i near 2^20, which keeps every
// 2-cycle's H. The scratch's label vectors show which width ran.
TEST(CycleRatio, ThreeLabelWidthsAgree) {
  const std::vector<i64> primes{1048573, 1048571, 1048559, 1048549,
                                1048517, 1048507, 1048447, 1048433};
  const auto build = [&](i64 cost_scale, bool split_h) {
    BivaluedGraph g(16);
    for (std::int32_t i = 0; i < 8; ++i) {
      const Rational eps =
          split_h ? Rational::of(1, primes[static_cast<std::size_t>(i)]) : Rational{0};
      g.add_arc(2 * i, 2 * i + 1, (i + 1) * cost_scale, Rational{1} + eps);
      g.add_arc(2 * i + 1, 2 * i, cost_scale, Rational{1} - eps);
      g.add_arc(2 * i + 1, (2 * i + 2) % 16, 0, Rational{64});
    }
    return g;
  };
  struct Width {
    const char* name;
    i64 cost_scale;
    bool split_h;
    std::size_t labels64, labels128, rational_labels;
  };
  // 8·2^56 = 2^59 > INT64_MAX/18 at λ = 0 already: every call leaves i64.
  const i64 big = i64{1} << 56;
  const std::vector<Width> widths{{"i64", 1, false, 16, 0, 0},
                                  {"i128", big, false, 0, 16, 0},
                                  {"Rational", 1, true, 0, 0, 16}};
  for (const Width& w : widths) {
    SCOPED_TRACE(w.name);
    const BivaluedGraph g = build(w.cost_scale, w.split_h);
    McrpScratch scratch;
    McrpResult r;
    solve_max_cycle_ratio(g, McrpOptions{}, scratch, r);
    ASSERT_EQ(r.status, McrpStatus::Optimal) << w.name;
    EXPECT_EQ(r.ratio, Rational::of(9, 2) * Rational{w.cost_scale}) << w.name;
    std::vector<std::int32_t> arcs = r.critical_cycle;
    std::sort(arcs.begin(), arcs.end());
    EXPECT_EQ(arcs, (std::vector<std::int32_t>{21, 22})) << w.name;
    EXPECT_EQ(scratch.dist64.size(), w.labels64) << w.name;
    EXPECT_EQ(scratch.dist128.size(), w.labels128) << w.name;
    EXPECT_EQ(scratch.dist.size(), w.rational_labels) << w.name;
    EXPECT_EQ(scratch.time_scale, w.split_h ? 0 : 1) << w.name;
    std::vector<Rational> potentials;
    compute_mcrp_potentials(g, r.ratio, potentials);
    expect_least_potentials(g, r.ratio, potentials);
    EXPECT_FALSE(has_positive_cycle(g, g.costs(), r.ratio, scratch)) << w.name;
    EXPECT_TRUE(has_positive_cycle(g, g.costs(), r.ratio * Rational::of(99, 100), scratch))
        << w.name;
  }
}

TEST(Karp, SimpleCycleMean) {
  Digraph g(3);
  std::vector<i64> w;
  g.add_arc(0, 1);
  w.push_back(2);
  g.add_arc(1, 2);
  w.push_back(4);
  g.add_arc(2, 0);
  w.push_back(3);
  const KarpResult r = karp_max_cycle_mean(g, w);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.max_cycle_mean, Rational{3});  // (2+4+3)/3
  EXPECT_EQ(r.cycle_arcs.size(), 3u);
}

TEST(Karp, PicksHeavierLoop) {
  Digraph g(3);
  std::vector<i64> w;
  g.add_arc(0, 0);
  w.push_back(5);
  g.add_arc(1, 2);
  w.push_back(9);
  g.add_arc(2, 1);
  w.push_back(2);
  const KarpResult r = karp_max_cycle_mean(g, w);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.max_cycle_mean, Rational::of(11, 2));
}

TEST(Karp, NoCycle) {
  Digraph g(2);
  std::vector<i64> w;
  g.add_arc(0, 1);
  w.push_back(1);
  EXPECT_FALSE(karp_max_cycle_mean(g, w).has_cycle);
}

TEST(Karp, WeightArityChecked) {
  Digraph g(2);
  g.add_arc(0, 1);
  EXPECT_THROW((void)karp_max_cycle_mean(g, {}), ModelError);
}

// Karp's DP tables are O(n²) per SCC: one component above 20,000 nodes is
// refused with SolverError before any table is allocated.
TEST(Karp, OversizedSccThrows) {
  const std::int32_t n = 20001;
  Digraph g(n);
  std::vector<i64> w;
  for (std::int32_t t = 0; t < n; ++t) {
    g.add_arc(t, (t + 1) % n);
    w.push_back(1);
  }
  EXPECT_THROW((void)karp_max_cycle_mean(g, w), SolverError);
}

// Cross-check sweep: on unit-time graphs, cycle ratio == cycle mean, so
// the exact solver and Karp must agree — cold, and warm right after a solve
// of a cost- and time-perturbed copy, whose critical circuit then seeds λ;
// and has_positive_cycle must find no positive circuit at the optimum λ*
// but one just below it.
class SolverAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(SolverAgreement, RatioEqualsMeanOnUnitTimeGraphs) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(3, 25));
    Digraph dg(n);
    BivaluedGraph bg(n);
    std::vector<i64> weights;
    // Same arcs with other costs and times: the warm solve's predecessor.
    BivaluedGraph perturbed(n);
    const i64 arcs = rng.uniform(n, 4 * n);
    for (i64 i = 0; i < arcs; ++i) {
      const auto s = static_cast<std::int32_t>(rng.uniform(0, n - 1));
      const auto d = static_cast<std::int32_t>(rng.uniform(0, n - 1));
      const i64 w = rng.uniform(0, 50);
      dg.add_arc(s, d);
      weights.push_back(w);
      bg.add_arc(s, d, w, Rational{1});
      perturbed.add_arc(s, d, std::max<i64>(0, w + rng.uniform(-10, 10)),
                        Rational(rng.uniform(1, 6), rng.uniform(1, 3)));
    }
    const KarpResult karp = karp_max_cycle_mean(dg, weights);
    const McrpResult exact = solve_max_cycle_ratio(bg);
    McrpOptions warm_options;
    warm_options.howard_warm_start = true;
    McrpScratch warm_scratch;
    McrpResult warm;
    solve_max_cycle_ratio(perturbed, warm_options, warm_scratch, warm);
    solve_max_cycle_ratio(bg, warm_options, warm_scratch, warm);
    EXPECT_EQ(warm.status, exact.status) << "round " << round;
    EXPECT_EQ(warm.ratio, exact.ratio) << "round " << round;
    if (!karp.has_cycle) {
      EXPECT_EQ(exact.status, McrpStatus::NoCycle);
      continue;
    }
    ASSERT_EQ(exact.status, McrpStatus::Optimal);
    EXPECT_EQ(exact.ratio, karp.max_cycle_mean) << "round " << round;
    EXPECT_EQ(warm.ratio, karp.max_cycle_mean) << "round " << round;
    if (warm.ratio.sign() > 0) {
      // The warm critical circuit, seed or not, achieves the ratio.
      EXPECT_EQ(Rational(i128{bg.cycle_cost(warm.critical_cycle)}, 1) /
                    bg.cycle_time(warm.critical_cycle),
                warm.ratio)
          << "round " << round;
    }
    // Karp's extracted circuit achieves its reported mean.
    i64 wc = 0;
    for (const auto a : karp.cycle_arcs) wc += weights[static_cast<std::size_t>(a)];
    EXPECT_EQ(Rational(wc, static_cast<i128>(karp.cycle_arcs.size())), karp.max_cycle_mean);
    if (exact.ratio.sign() > 0) {
      McrpScratch scratch;
      EXPECT_FALSE(has_positive_cycle(bg, bg.costs(), exact.ratio, scratch)) << "round " << round;
      EXPECT_TRUE(has_positive_cycle(bg, bg.costs(), exact.ratio * Rational::of(999, 1000), scratch))
          << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement, ::testing::Values(41, 42, 43, 44, 45));

}  // namespace
}  // namespace kp
