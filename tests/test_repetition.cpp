// Tests for consistency analysis and the repetition vector (§2.2), and for
// the word path against the Rational reference it falls back to.
#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <typeinfo>
#include <vector>

#include "gen/categories.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"
#include "util/error.hpp"

namespace kp {
namespace {

TEST(Repetition, Figure2) {
  const RepetitionVector rv = compute_repetition_vector(figure2_graph());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{3, 4, 6, 1}));
  EXPECT_EQ(rv.sum, 14);
}

TEST(Repetition, Figure1) {
  // i_b = 6, o_b = 7 => q = [7, 6].
  const RepetitionVector rv = compute_repetition_vector(figure1_buffer());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{7, 6}));
}

TEST(Repetition, SamplerateConverterClassicVector) {
  const RepetitionVector rv = compute_repetition_vector(samplerate_converter());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{147, 147, 98, 28, 32, 160}));
  EXPECT_EQ(rv.sum, 612);
}

TEST(Repetition, H263Decoder) {
  const RepetitionVector rv = compute_repetition_vector(h263_decoder());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{1, 2376, 2376, 1}));
  EXPECT_EQ(rv.sum, 4754);  // the Table-1 maximum
}

TEST(Repetition, InconsistentGraphDetected) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  g.add_buffer("", a, b, 2, 3, 0);
  g.add_buffer("", a, b, 1, 1, 0);  // contradicts 2:3
  const RepetitionVector rv = compute_repetition_vector(g);
  EXPECT_FALSE(rv.consistent);
  EXPECT_FALSE(rv.failure_reason.empty());
}

TEST(Repetition, InconsistentCycleDetected) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  const TaskId c = g.add_task("C", 1);
  g.add_buffer("", a, b, 2, 1, 0);   // q_b = 2 q_a
  g.add_buffer("", b, c, 2, 1, 0);   // q_c = 4 q_a
  g.add_buffer("", c, a, 2, 1, 0);   // forces q_a = 8 q_a: inconsistent
  EXPECT_FALSE(compute_repetition_vector(g).consistent);
}

TEST(Repetition, EmptyGraph) {
  const RepetitionVector rv = compute_repetition_vector(CsdfGraph{});
  EXPECT_TRUE(rv.consistent);
  EXPECT_TRUE(rv.q.empty());
}

TEST(Repetition, SingleTaskNoBuffers) {
  CsdfGraph g;
  g.add_task("A", 1);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{1}));
}

TEST(Repetition, DisconnectedComponentsNormalizedIndependently) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  const TaskId c = g.add_task("C", 1);
  const TaskId d = g.add_task("D", 1);
  g.add_buffer("", a, b, 2, 3, 0);  // q = [3, 2]
  g.add_buffer("", c, d, 5, 1, 0);  // q = [1, 5]
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{3, 2, 1, 5}));
}

TEST(Repetition, SelfLoopAlwaysBalanced) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", std::vector<i64>{1, 1});
  g.add_buffer("", a, a, std::vector<i64>{1, 1}, std::vector<i64>{1, 1}, 1);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{1}));
}

TEST(Repetition, CsdfUsesTotalRates) {
  // CSDF consistency uses the per-iteration totals i_b, o_b.
  CsdfGraph g;
  const TaskId a = g.add_task("A", std::vector<i64>{1, 1, 1});
  const TaskId b = g.add_task("B", std::vector<i64>{1, 1});
  g.add_buffer("", a, b, std::vector<i64>{2, 3, 1}, std::vector<i64>{2, 5}, 0);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{7, 6}));
}

// Property sweep: generated graphs are consistent, the vector balances
// every buffer, and it is minimal (component-wise gcd is 1).
class RepetitionProperty : public ::testing::TestWithParam<u64> {};

TEST_P(RepetitionProperty, BalanceAndMinimality) {
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const CsdfGraph g = random_csdf(rng);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    for (const Buffer& b : g.buffers()) {
      EXPECT_EQ(checked_mul(i128{rv.of(b.src)}, i128{b.total_prod}),
                checked_mul(i128{rv.of(b.dst)}, i128{b.total_cons}))
          << "buffer " << b.name;
    }
    for (const i64 q : rv.q) EXPECT_GE(q, 1);
    // Connected generator output: whole-vector gcd must be 1 (minimality).
    i64 gcd_all = 0;
    for (const i64 q : rv.q) gcd_all = gcd64(gcd_all, q);
    EXPECT_EQ(gcd_all, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepetitionProperty, ::testing::Values(21, 22, 23, 24, 25));

// ---- the word path against the Rational reference ---------------------------

/// Computes q of `g` into the shared `out` (the word path, falling back to
/// the reference) and with the Rational reference, and requires the same
/// verdict, q, sum and failure_reason, or the same exception type and
/// message from both.
void expect_matches_reference(const CsdfGraph& g, RepetitionVector& out,
                              const std::string& context) {
  RepetitionVector want;
  std::string want_error;
  try {
    want = compute_repetition_vector_rational(g);
  } catch (const std::exception& e) {
    want_error = std::string(typeid(e).name()) + ": " + e.what();
  }
  std::string got_error;
  try {
    compute_repetition_vector_into(g, out);
  } catch (const std::exception& e) {
    got_error = std::string(typeid(e).name()) + ": " + e.what();
  }
  ASSERT_EQ(got_error, want_error) << context;
  if (!want_error.empty()) return;
  EXPECT_EQ(out.consistent, want.consistent) << context;
  EXPECT_EQ(out.q, want.q) << context;
  EXPECT_TRUE(out.sum == want.sum) << context;
  EXPECT_EQ(out.failure_reason, want.failure_reason) << context;
}

/// g with buffer `b`'s first production rate raised by one: inconsistent
/// when b closes an undirected cycle, another q when b is a tree edge.
CsdfGraph with_one_rate_perturbed(CsdfGraph g, BufferId b) {
  const Buffer& buf = g.buffer(b);
  std::vector<i64> prod = buf.prod;
  const std::vector<i64> cons = buf.cons;
  prod[0] += 1;
  g.set_rates(b, prod, cons);
  return g;
}

/// The disjoint union of `parts`, task and buffer ids shifted part by part.
CsdfGraph disjoint_union(const std::vector<CsdfGraph>& parts) {
  CsdfGraph u;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const TaskId offset = u.task_count();
    const std::string prefix = "c" + std::to_string(p) + ".";
    for (const Task& t : parts[p].tasks()) u.add_task(prefix + t.name, t.durations);
    for (const Buffer& b : parts[p].buffers()) {
      u.add_buffer(prefix + b.name, b.src + offset, b.dst + offset, b.prod, b.cons,
                   b.initial_tokens);
    }
  }
  return u;
}

TEST(RepetitionWords, MatchReferenceOnSeededGraphs) {
  RepetitionVector out;  // one output reused by every graph below
  Rng rng(4242);
  int graphs = 0;
  int inconsistent_then_consistent = 0;
  bool last_inconsistent = false;
  const auto check = [&](const CsdfGraph& g, const std::string& context) {
    expect_matches_reference(g, out, context);
    if (last_inconsistent && out.consistent) ++inconsistent_then_consistent;
    last_inconsistent = !out.consistent;
    ++graphs;
  };
  for (int round = 0; round < 500; ++round) {
    RandomCsdfOptions options;
    options.max_tasks = static_cast<std::int32_t>(rng.uniform(3, 14));
    options.max_phases = static_cast<std::int32_t>(rng.uniform(1, 4));
    options.max_q = rng.uniform(2, 12);
    options.max_rate_factor = rng.uniform(1, 5);
    const CsdfGraph g = random_csdf(rng, options);
    const std::string context = "round " + std::to_string(round);
    check(g, context + " consistent");
    const auto b = static_cast<BufferId>(rng.uniform(0, g.buffer_count() - 1));
    const CsdfGraph perturbed = with_one_rate_perturbed(g, b);
    check(perturbed, context + " perturbed");
    std::vector<CsdfGraph> parts{g};
    const i64 extra_parts = rng.uniform(1, 3);
    for (i64 p = 0; p < extra_parts; ++p) parts.push_back(random_csdf(rng, options));
    const CsdfGraph joined = disjoint_union(parts);
    check(joined, context + " union");
    parts.back() = with_one_rate_perturbed(parts.back(), 0);
    check(disjoint_union(parts), context + " union, last part perturbed");
  }
  EXPECT_GE(graphs, 2000);
  EXPECT_GT(inconsistent_then_consistent, 100);  // stale state had its chances
}

TEST(RepetitionWords, ProductsPast64BitsFallBackToTheSameQ) {
  // f_B = 2^40; the next buffer's 2^30:2^30 ratio multiplies past 2^63
  // before reduction, though every reduced fraction and q fit in i64.
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  const TaskId c = g.add_task("C", 1);
  g.add_buffer("", a, b, i64{1} << 40, 1, 0);
  g.add_buffer("", b, c, i64{1} << 30, i64{1} << 30, 0);
  RepetitionVector out;
  compute_repetition_vector_into(g, out);
  ASSERT_TRUE(out.consistent);
  EXPECT_EQ(out.q, (std::vector<i64>{1, i64{1} << 40, i64{1} << 40}));
  expect_matches_reference(g, out, "products past 2^63");
}

TEST(RepetitionWords, QPastInt64ThrowsOverflowOnBothPaths) {
  // q = (1, 2^62, 2^64): the last entry does not fit in 64 bits.
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  const TaskId c = g.add_task("C", 1);
  g.add_buffer("", a, b, i64{1} << 62, 1, 0);
  g.add_buffer("", b, c, 4, 1, 0);
  RepetitionVector out;
  EXPECT_THROW(compute_repetition_vector_into(g, out), OverflowError);
  EXPECT_THROW((void)compute_repetition_vector_rational(g), OverflowError);
  expect_matches_reference(g, out, "q past INT64_MAX");
  // The output stays usable: the next graph rewrites every field.
  expect_matches_reference(figure2_graph(), out, "figure 2 after an overflow");
  EXPECT_EQ(out.q, (std::vector<i64>{3, 4, 6, 1}));
}

}  // namespace
}  // namespace kp
