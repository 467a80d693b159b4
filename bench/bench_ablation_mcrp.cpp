// Ablation A (google-benchmark): MCRP solver choice.
//
// The §3.3 reduction makes the MCRP solver K-Iter's inner loop; this bench
// compares, on random bi-valued graphs of growing size:
//   * the exact improvement solver, cold (the default),
//   * the same solver warm: two cost variants of one layout solved in turn
//     on one scratch, each seeded with the other's critical circuit and
//     reusing its cyclic core (what a parametric sweep does),
//   * Karp's algorithm against the exact solver on unit-H graphs.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "mcrp/cycle_ratio.hpp"
#include "mcrp/karp.hpp"
#include "util/rng.hpp"

namespace {

using namespace kp;

/// Random strongly-connected-ish bi-valued graph: a ring plus chords.
BivaluedGraph random_instance(i64 nodes, bool unit_time, u64 seed) {
  Rng rng(seed);
  BivaluedGraph g(static_cast<std::int32_t>(nodes));
  for (i64 v = 0; v < nodes; ++v) {
    const auto next = static_cast<std::int32_t>((v + 1) % nodes);
    g.add_arc(static_cast<std::int32_t>(v), next, rng.uniform(0, 20),
              unit_time ? Rational{1} : Rational(rng.uniform(1, 12), rng.uniform(1, 4)));
  }
  for (i64 c = 0; c < 2 * nodes; ++c) {
    g.add_arc(static_cast<std::int32_t>(rng.uniform(0, nodes - 1)),
              static_cast<std::int32_t>(rng.uniform(0, nodes - 1)), rng.uniform(0, 20),
              unit_time ? Rational{1} : Rational(rng.uniform(1, 12), rng.uniform(1, 4)));
  }
  return g;
}

void BM_ExactCold(benchmark::State& state) {
  const BivaluedGraph g = random_instance(state.range(0), false, 42);
  McrpOptions options;
  options.compute_potentials = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_max_cycle_ratio(g, options));
  }
}
BENCHMARK(BM_ExactCold)->Arg(50)->Arg(200)->Arg(800);

void BM_ExactWarmSeeded(benchmark::State& state) {
  const BivaluedGraph a = random_instance(state.range(0), false, 42);
  // A copy keeps the layout stamp, and set_cost preserves it.
  BivaluedGraph b = a;
  Rng rng(7);
  for (std::int32_t arc = 0; arc < b.arc_count(); ++arc) {
    b.set_cost(arc, std::max<i64>(0, b.cost(arc) + rng.uniform(-2, 2)));
  }
  McrpOptions options;
  options.compute_potentials = false;
  options.howard_warm_start = true;
  McrpScratch scratch;
  McrpResult result;
  bool flip = false;
  for (auto _ : state) {
    solve_max_cycle_ratio(flip ? b : a, options, scratch, result);
    benchmark::DoNotOptimize(result.ratio);
    flip = !flip;
  }
}
BENCHMARK(BM_ExactWarmSeeded)->Arg(50)->Arg(200)->Arg(800);

void BM_KarpUnitTime(benchmark::State& state) {
  const BivaluedGraph g = random_instance(state.range(0), true, 42);
  std::vector<i64> weights;
  weights.reserve(static_cast<std::size_t>(g.arc_count()));
  for (std::int32_t a = 0; a < g.arc_count(); ++a) weights.push_back(g.cost(a));
  for (auto _ : state) {
    benchmark::DoNotOptimize(karp_max_cycle_mean(g.graph(), weights));
  }
}
BENCHMARK(BM_KarpUnitTime)->Arg(50)->Arg(200)->Arg(800);

void BM_ExactUnitTime(benchmark::State& state) {
  const BivaluedGraph g = random_instance(state.range(0), true, 42);
  McrpOptions options;
  options.compute_potentials = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_max_cycle_ratio(g, options));
  }
}
BENCHMARK(BM_ExactUnitTime)->Arg(50)->Arg(200)->Arg(800);

}  // namespace

BENCHMARK_MAIN();
