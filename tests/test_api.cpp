// Tests for the analysis façade (api/analysis.hpp).
#include <gtest/gtest.h>

#include <string>

#include "api/analysis.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"

namespace kp {
namespace {

TEST(Api, MethodNames) {
  EXPECT_EQ(method_name(Method::KIter), "K-Iter");
  EXPECT_EQ(method_name(Method::Periodic), "periodic [4]");
  EXPECT_EQ(method_name(Method::SymbolicExecution), "symbolic [16]");
  EXPECT_EQ(method_name(Method::Expansion), "expansion [10]");
}

TEST(Api, Figure2AllMethods) {
  const CsdfGraph g = figure2_graph();
  const Analysis kiter = analyze_throughput(g, Method::KIter);
  ASSERT_EQ(kiter.outcome, Outcome::Value);
  EXPECT_EQ(kiter.quality, Quality::Exact);
  EXPECT_EQ(kiter.period, Rational{13});

  const Analysis sym = analyze_throughput(g, Method::SymbolicExecution);
  ASSERT_EQ(sym.outcome, Outcome::Value);
  EXPECT_EQ(sym.quality, Quality::Exact);
  EXPECT_EQ(sym.period, Rational{13});

  const Analysis periodic = analyze_throughput(g, Method::Periodic);
  ASSERT_EQ(periodic.outcome, Outcome::Value);
  EXPECT_EQ(periodic.quality, Quality::AchievableBound);
  EXPECT_EQ(periodic.period, Rational{18});
  EXPECT_GE(periodic.period, kiter.period);  // a bound, never better
}

TEST(Api, ExpansionRejectsCsdfGracefully) {
  // figure2 is CSDF; the expansion method is SDF-only and must throw a
  // typed error rather than crash.
  EXPECT_THROW((void)analyze_throughput(figure2_graph(), Method::Expansion), ModelError);
}

TEST(Api, ExpansionOnSdf) {
  const CsdfGraph g = tiny_pipeline();
  const Analysis expansion = analyze_throughput(g, Method::Expansion);
  const Analysis kiter = analyze_throughput(g, Method::KIter);
  ASSERT_EQ(expansion.outcome, Outcome::Value);
  ASSERT_EQ(kiter.outcome, Outcome::Value);
  EXPECT_EQ(expansion.period, kiter.period);
}

TEST(Api, DeadlockOutcome) {
  const Analysis a = analyze_throughput(figure2_deadlocked(), Method::KIter);
  EXPECT_EQ(a.outcome, Outcome::Deadlock);
  const Analysis b = analyze_throughput(figure2_deadlocked(), Method::SymbolicExecution);
  EXPECT_EQ(b.outcome, Outcome::Deadlock);
}

TEST(Api, SerializationFlagChangesSemantics) {
  // Acyclic pipeline: serialized -> finite rate; unconstrained -> infinite.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 3);
  const TaskId b = g.add_task("b", 5);
  g.add_buffer("", a, b, 1, 1, 0);
  AnalysisOptions serialize;
  const Analysis bounded = analyze_throughput(g, Method::KIter, serialize);
  ASSERT_EQ(bounded.outcome, Outcome::Value);
  EXPECT_EQ(bounded.period, Rational{5});

  AnalysisOptions free;
  free.serialize_tasks = false;
  const Analysis unbounded = analyze_throughput(g, Method::KIter, free);
  EXPECT_EQ(unbounded.outcome, Outcome::Unbounded);
}

TEST(Api, BudgetOutcome) {
  AnalysisOptions options;
  options.sim.max_states = 1;
  const Analysis a = analyze_throughput(figure2_graph(), Method::SymbolicExecution, options);
  EXPECT_EQ(a.outcome, Outcome::Budget);
}

TEST(Api, ElapsedAndDetailPopulated) {
  const Analysis a = analyze_throughput(figure2_graph(), Method::KIter);
  EXPECT_GE(a.elapsed_ms, 0.0);
  EXPECT_NE(a.detail.find("rounds="), std::string::npos);
}

TEST(Api, LongKDetailIsCutAfterSixtyBytesOfK) {
  // A 14-task ring whose final K is 2 on t1..t13. The K part of `detail`
  // is cut with ",..." once it alone passes 60 bytes, so t12 is the last
  // entry shown; the count after it still covers all 13 tasks.
  CsdfGraph g("ring14");
  for (int i = 0; i < 14; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    g.add_task(std::move(name), 1 + i % 3);
  }
  g.add_buffer("", 0, 1, 2, 1, 0);
  for (TaskId i = 1; i < 13; ++i) g.add_buffer("", i, i + 1, 1, 1, 0);
  g.add_buffer("", 13, 0, 1, 2, 2);
  const Analysis a = analyze_throughput(g, Method::KIter);
  ASSERT_EQ(a.outcome, Outcome::Value);
  EXPECT_EQ(a.period, Rational{30});
  EXPECT_EQ(a.detail,
            "rounds=2 K={t1:2,t2:2,t3:2,t4:2,t5:2,t6:2,t7:2,t8:2,t9:2,t10:2,t11:2,t12:2,...} "
            "(13 tasks >1)");
}

// Cross-method agreement through the façade on random graphs.
class ApiAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(ApiAgreement, ExactMethodsMatch) {
  Rng rng(GetParam());
  RandomCsdfOptions gen;
  gen.max_tasks = 5;
  gen.max_q = 4;
  gen.max_phases = 2;
  for (int round = 0; round < 10; ++round) {
    const CsdfGraph g = random_csdf(rng, gen);
    const Analysis kiter = analyze_throughput(g, Method::KIter);
    const Analysis sym = analyze_throughput(g, Method::SymbolicExecution);
    if (sym.outcome == Outcome::Budget) continue;
    EXPECT_EQ(kiter.outcome, sym.outcome) << "round " << round;
    if (kiter.outcome == Outcome::Value) {
      EXPECT_EQ(kiter.period, sym.period) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApiAgreement, ::testing::Values(801, 802, 803));

}  // namespace
}  // namespace kp
