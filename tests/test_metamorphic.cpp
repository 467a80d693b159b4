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
// sweep, for c in {1, 2^20, 2^40}; at c = 2^40 the kernel's scaled weights
// leave the i64 label width, so the same trajectories also run on i128
// labels. Half the graphs get tight buffer capacities, so K-Iter takes
// several rounds. A failure names its seed and prints the graph.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "api/service.hpp"
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

TEST(Metamorphic, ScalingDurationsScalesThePeriodAndNothingElse) {
  const std::vector<i64> factors{i64{1} << 20, i64{1} << 40};
  int cold_values = 0;
  int warm_values = 0;
  int multi_round = 0;
  for (u64 seed = 1; seed <= 80; ++seed) {
    const CsdfGraph g = graph_for_seed(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", graph:\n" + print_csdf(g));
    const Analysis cold = analyze_throughput(g, Method::KIter);
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
}

}  // namespace
}  // namespace kp
