// The symbolic-region engine (core/regions.hpp) and VariantBatch::symbolic:
//
//   1. Critical-cycle certs on exact KIter analyses: coefficients reproduce
//      the period on the paper's Figure 2 graph, evaluate() matches at
//      perturbed durations while the cycle holds, describe() renders.
//   2. Ray inference: affine exec-time sweeps (single- and multi-task) are
//      recognized with s = the variant index; off-ray, non-exec-time,
//      negative-duration, duplicate-task and too-short sequences are not.
//   3. The affine exec_time_sweep generator: produced deltas sit on the
//      ray; bad axes (missing task, wrong arity, duplicates, negative
//      samples) throw up front.
//   4. Randomized 100-graph equivalence: symbolic-mode analyze_variants is
//      bit-identical (outcome, quality, period, throughput) to cold
//      per-point analysis over random affine rays — crossing region
//      breakpoints, K changes, and Deadlock/Unbounded boundaries — while
//      actually serving most points without an exact solve.
//   5. A deterministic two-cycle crossing: the sweep that moves the maximum
//      from one self-loop to another is served by a handful of exact
//      solves, breakpoint included, values identical to cold.
//   6. A multi-task ray driving every duration to zero hits the Unbounded
//      boundary exactly where a cold sweep does.
//   7. Thread-count determinism: symbolic sweeps return identical full
//      results (detail and rounds included) at any worker count, and
//      non-affine batches with symbolic=true fall back per-point with
//      unchanged values.
//   8. Acceptance shape: a 120-point exec-time sweep on the 16-task gcd
//      chain is served with <= 10 exact solves.
//   9. Region ends: the crossing-point walk of RegionCertifier::region_end
//      returns, at every anchor of 240 seeded 64-point rays, the sample the
//      bisection it replaced returns — rays ending at the Unbounded guard
//      and curves whose region ends take several jumps included — with
//      fewer checks in total; a crossing whose arithmetic overflows i128
//      falls back to bisection steps and still ends where bisection does.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "api/service.hpp"
#include "core/regions.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "io/text_format.hpp"
#include "model/transform.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

Analysis cold_point(const CsdfGraph& base, const GraphDelta& d) {
  return analyze_throughput(make_variant(base, d), Method::KIter);
}

void expect_value_identical(const Analysis& got, const Analysis& want, const std::string& ctx) {
  ASSERT_EQ(got.outcome, want.outcome) << ctx;
  ASSERT_EQ(got.quality, want.quality) << ctx;
  ASSERT_EQ(got.period, want.period) << ctx;
  ASSERT_EQ(got.throughput, want.throughput) << ctx;
}

/// True for points served by a region evaluation rather than an exact solve.
bool served_symbolically(const Analysis& a) {
  return a.rounds == 0 && a.detail.rfind("symbolic region", 0) == 0;
}

i64 exact_solve_count(const std::vector<Analysis>& results) {
  i64 n = 0;
  for (const Analysis& a : results) n += served_symbolically(a) ? 0 : 1;
  return n;
}

/// Runs the batch symbolically and asserts bit-identity against cold
/// per-point analysis; returns the symbolic results for further checks.
std::vector<Analysis> expect_symbolic_matches_cold(const CsdfGraph& base,
                                                   const std::vector<GraphDelta>& deltas,
                                                   const std::string& ctx) {
  ThroughputService service(ServiceOptions{0});
  VariantBatch batch;
  batch.base = base;
  batch.deltas = deltas;
  batch.symbolic = true;
  std::vector<Analysis> sym = service.analyze_variants(batch);
  EXPECT_EQ(sym.size(), deltas.size()) << ctx;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    expect_value_identical(sym[i], cold_point(base, deltas[i]),
                           ctx + " point " + std::to_string(i));
  }
  return sym;
}

// ---- 1. certs on exact analyses ---------------------------------------------

TEST(Regions, CriticalCycleCertOnFigure2) {
  const CsdfGraph g = figure2_graph();
  const Analysis a = analyze_throughput(g, Method::KIter);
  ASSERT_EQ(a.outcome, Outcome::Value);
  ASSERT_EQ(a.quality, Quality::Exact);
  const CriticalCycleCert& cert = a.critical_cycle;
  ASSERT_FALSE(cert.empty());
  EXPECT_EQ(cert.ratio, a.period);
  EXPECT_GT(cert.cycle_time.sign(), 0);
  EXPECT_FALSE(cert.tasks.empty());
  EXPECT_FALSE(cert.k.empty());
  // The coefficients are a closed form: evaluating them at the graph's own
  // durations reproduces the period exactly.
  EXPECT_EQ(cert.evaluate(g), a.period);
  i64 cost = 0;
  for (const CriticalCycleCert::Coeff& c : cert.coeffs) {
    EXPECT_GT(c.count, 0);
    EXPECT_GE(c.phase, 1);
    cost += c.count * g.task(c.task).durations[static_cast<std::size_t>(c.phase - 1)];
  }
  EXPECT_EQ(cost, cert.cycle_cost);
  EXPECT_EQ(Rational(i128{cost}, 1) / cert.cycle_time, a.period);
  const std::string text = cert.describe(g);
  EXPECT_NE(text.find("d("), std::string::npos) << text;
  EXPECT_NE(text.find(") / "), std::string::npos) << text;
}

TEST(Regions, CertEmptyOffTheExactPath) {
  // Deadlock: no value, no cert.
  const Analysis dead = analyze_throughput(figure2_deadlocked(), Method::KIter);
  ASSERT_EQ(dead.outcome, Outcome::Deadlock);
  EXPECT_TRUE(dead.critical_cycle.empty());
  // Periodic reports a bound through a different engine: no cert either.
  const Analysis periodic = analyze_throughput(figure2_graph(), Method::Periodic);
  EXPECT_TRUE(periodic.critical_cycle.empty());
}

// ---- 2./3. ray inference and the affine sweep generator ---------------------

TEST(Regions, InferExecTimeRay) {
  CsdfGraph g("two");
  const TaskId a = g.add_task("A", {3, 1});
  const TaskId b = g.add_task("B", {2});
  g.add_buffer("ab", a, b, 1, 1, 0);

  ExecTimeRay ray;
  ray.axes.push_back({a, {4, 2}, {1, 0}});
  ray.axes.push_back({b, {9, 0}, {0, 0}});  // wrong arity for B on purpose below
  ray.axes[1] = {b, {9}, {-1}};
  const std::vector<i64> s = {0, 1, 2, 3, 4};
  const std::vector<GraphDelta> deltas = exec_time_sweep(g, ray, s);
  ASSERT_EQ(deltas.size(), 5u);
  EXPECT_EQ(deltas[3].exec_times[0].durations, (std::vector<i64>{7, 2}));
  EXPECT_EQ(deltas[3].exec_times[1].durations, (std::vector<i64>{6}));

  const auto inferred = infer_exec_time_ray(deltas);
  ASSERT_TRUE(inferred.has_value());
  ASSERT_EQ(inferred->axes.size(), 2u);
  EXPECT_EQ(inferred->axes[0].task, a);
  EXPECT_EQ(inferred->axes[0].base, (std::vector<i64>{4, 2}));
  EXPECT_EQ(inferred->axes[0].step, (std::vector<i64>{1, 0}));
  EXPECT_EQ(inferred->axes[1].step, (std::vector<i64>{-1}));

  // Not a ray: single delta, off-ray sample, marking edits, duplicate task.
  EXPECT_FALSE(infer_exec_time_ray(std::span<const GraphDelta>(deltas.data(), 1)).has_value());
  {
    std::vector<GraphDelta> bent = deltas;
    bent[4].exec_times[0].durations[0] += 1;
    EXPECT_FALSE(infer_exec_time_ray(bent).has_value());
  }
  {
    std::vector<GraphDelta> marked = deltas;
    marked[2].markings.push_back({0, 3});
    EXPECT_FALSE(infer_exec_time_ray(marked).has_value());
  }
  {
    std::vector<GraphDelta> dup = deltas;
    for (GraphDelta& d : dup) d.exec_times.push_back(d.exec_times[0]);
    EXPECT_FALSE(infer_exec_time_ray(dup).has_value());
  }

  // Generator guards: unknown task, wrong arity, duplicate axis, negative
  // duration at some sample.
  ExecTimeRay bad = ray;
  bad.axes[0].task = 99;
  EXPECT_THROW((void)exec_time_sweep(g, bad, s), ModelError);
  bad = ray;
  bad.axes[0].step = {1};
  EXPECT_THROW((void)exec_time_sweep(g, bad, s), ModelError);
  bad = ray;
  bad.axes.push_back(ray.axes[0]);
  EXPECT_THROW((void)exec_time_sweep(g, bad, s), ModelError);
  bad = ray;
  bad.axes[1] = {b, {2}, {-1}};  // negative at s = 3
  EXPECT_THROW((void)exec_time_sweep(g, bad, s), ModelError);
}

// ---- 4. randomized equivalence ----------------------------------------------

TEST(Regions, SymbolicMatchesColdOnRandomRays) {
  Rng rng(20260808);
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 6;
  options.max_phases = 3;
  options.max_q = 5;
  const int kGraphs = 100;
  const i64 kSamples = 10;
  i64 symbolic_points = 0;
  i64 total_points = 0;
  for (int trial = 0; trial < kGraphs; ++trial) {
    options.starve_one_cycle = trial % 4 == 3;  // mix Deadlock-heavy sweeps in
    const CsdfGraph base = random_csdf(rng, options);
    // A random affine ray over one or two tasks; steps may be negative, and
    // bases are lifted just enough to keep every sample's durations >= 0 —
    // so sweeps routinely drive durations to exact zero (the Unbounded
    // boundary) and across critical-cycle changes.
    ExecTimeRay ray;
    const int axes = 1 + static_cast<int>(rng.uniform(0, 1));
    for (int x = 0; x < axes && x < base.task_count(); ++x) {
      ExecTimeRay::Axis axis;
      axis.task = static_cast<TaskId>(rng.uniform(0, base.task_count() - 1));
      if (!ray.axes.empty() && ray.axes[0].task == axis.task) continue;
      for (std::int32_t p = 0; p < base.phases(axis.task); ++p) {
        const i64 step = rng.uniform(0, 4) - 2;
        i64 start = rng.uniform(0, 6);
        if (step < 0) start = std::max(start, -step * (kSamples - 1));
        axis.base.push_back(start);
        axis.step.push_back(step);
      }
      ray.axes.push_back(std::move(axis));
    }
    std::vector<i64> s(static_cast<std::size_t>(kSamples));
    for (i64 v = 0; v < kSamples; ++v) s[static_cast<std::size_t>(v)] = v;
    const std::vector<GraphDelta> deltas = exec_time_sweep(base, ray, s);
    const std::vector<Analysis> sym =
        expect_symbolic_matches_cold(base, deltas, "trial " + std::to_string(trial));
    total_points += static_cast<i64>(sym.size());
    for (const Analysis& a : sym) symbolic_points += served_symbolically(a) ? 1 : 0;
  }
  // The engine must actually engage: across 1000 points, most should be
  // served from regions, not per-point solves.
  EXPECT_GT(symbolic_points, total_points / 3)
      << "symbolic mode served " << symbolic_points << "/" << total_points << " points";
}

// ---- 5. deterministic breakpoint crossing -----------------------------------

TEST(Regions, BreakpointBetweenTwoCycles) {
  // Two tasks whose (serialization) self-loops are the only cycles: the max
  // cycle ratio is max(d_A, d_B). Sweeping d_A across d_B = 5 crosses the
  // breakpoint where the critical cycle flips.
  CsdfGraph g("cross");
  const TaskId a = g.add_task("A", {0});
  const TaskId b = g.add_task("B", {5});
  g.add_buffer("ab", a, b, 1, 1, 0);

  ExecTimeRay ray;
  ray.axes.push_back({a, {0}, {1}});
  std::vector<i64> s;
  for (i64 v = 0; v <= 10; ++v) s.push_back(v);
  const std::vector<GraphDelta> deltas = exec_time_sweep(g, ray, s);
  const std::vector<Analysis> sym = expect_symbolic_matches_cold(g, deltas, "crossing");
  for (std::size_t i = 0; i < sym.size(); ++i) {
    ASSERT_EQ(sym[i].outcome, Outcome::Value);
    EXPECT_EQ(sym[i].period, Rational(std::max<i64>(static_cast<i64>(i), 5)));
  }
  // One anchor for the flat region, one exact re-solve at the breakpoint,
  // one anchor for the rising region — small, not per-point.
  EXPECT_LE(exact_solve_count(sym), 4);
  // In-region points carry the anchor's cert re-anchored at their sample.
  ASSERT_TRUE(served_symbolically(sym[8]));
  EXPECT_EQ(sym[8].detail, "symbolic region anchor=6 [6..10] K=1");
  EXPECT_EQ(sym[8].critical_cycle.ratio, sym[8].period);
  EXPECT_EQ(sym[8].critical_cycle.tasks, (std::vector<TaskId>{a}));
}

// ---- 6. the Unbounded boundary ----------------------------------------------

TEST(Regions, MultiTaskRayToUnbounded) {
  CsdfGraph g("drain");
  const TaskId a = g.add_task("A", {8});
  const TaskId b = g.add_task("B", {8});
  g.add_buffer("ab", a, b, 1, 1, 0);

  ExecTimeRay ray;
  ray.axes.push_back({a, {8}, {-1}});
  ray.axes.push_back({b, {8}, {-1}});
  std::vector<i64> s;
  for (i64 v = 0; v <= 8; ++v) s.push_back(v);
  const std::vector<GraphDelta> deltas = exec_time_sweep(g, ray, s);
  const std::vector<Analysis> sym = expect_symbolic_matches_cold(g, deltas, "drain");
  for (std::size_t i = 0; i + 1 < sym.size(); ++i) {
    ASSERT_EQ(sym[i].outcome, Outcome::Value) << i;
    EXPECT_EQ(sym[i].period, Rational(8 - static_cast<i64>(i)));
  }
  // At s = 8 every duration is zero: no circuit bounds the rate.
  EXPECT_EQ(sym.back().outcome, Outcome::Unbounded);
}

// ---- 7. determinism and fallback --------------------------------------------

TEST(Regions, SymbolicDeterministicAcrossThreadCounts) {
  const CsdfGraph base = bench::gcd_chain(8, 16);
  ExecTimeRay ray;
  ray.axes.push_back({4, {1}, {3}});  // mid-chain single-phase task
  std::vector<i64> s;
  for (i64 v = 0; v < 60; ++v) s.push_back(v);
  const std::vector<GraphDelta> deltas = exec_time_sweep(base, ray, s);

  std::vector<std::vector<Analysis>> runs;
  for (const int threads : {0, 2, 5}) {
    ThroughputService service(ServiceOptions{threads});
    VariantBatch batch;
    batch.base = base;
    batch.deltas = deltas;
    batch.symbolic = true;
    runs.push_back(service.analyze_variants(batch));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const std::string ctx = "run " + std::to_string(r) + " point " + std::to_string(i);
      expect_value_identical(runs[r][i], runs[0][i], ctx);
      // The symbolic walk is sequential on the caller regardless of pool
      // size, so even trajectory metadata is identical.
      EXPECT_EQ(runs[r][i].detail, runs[0][i].detail) << ctx;
      EXPECT_EQ(runs[r][i].rounds, runs[0][i].rounds) << ctx;
    }
  }
  // The full bytes of one region fill, K rendering included.
  ASSERT_TRUE(served_symbolically(runs[0][7]));
  EXPECT_EQ(runs[0][7].detail,
            "symbolic region anchor=1 [1..59] "
            "K={t1:16,t2:16,t3:16,t4:16,t5:16,t6:16,t7:16} (7 tasks >1)");
}

TEST(Regions, NonAffineBatchFallsBackPerPoint) {
  const CsdfGraph g = figure2_graph();
  // Geometric values: not affine in the index, so symbolic mode must fall
  // back to the per-point path with unchanged values.
  const std::vector<i64> values = {1, 2, 4, 8, 16};
  const std::vector<GraphDelta> deltas = exec_time_sweep(g, TaskId{0}, values);
  const std::vector<Analysis> sym = expect_symbolic_matches_cold(g, deltas, "fallback");
  for (const Analysis& a : sym) EXPECT_FALSE(served_symbolically(a));
}

// ---- 8. acceptance shape: the gcd-chain sweep -------------------------------

TEST(Regions, GcdChainSweepNeedsFewExactSolves) {
  const CsdfGraph base = bench::gcd_chain(16, 64);
  ExecTimeRay ray;
  ray.axes.push_back({8, {1}, {1}});  // sweep the mid-chain actor 1..120
  std::vector<i64> s;
  for (i64 v = 0; v < 120; ++v) s.push_back(v);
  const std::vector<GraphDelta> deltas = exec_time_sweep(base, ray, s);

  ThroughputService service(ServiceOptions{0});
  VariantBatch batch;
  batch.base = base;
  batch.deltas = deltas;
  batch.symbolic = true;
  const std::vector<Analysis> sym = service.analyze_variants(batch);
  ASSERT_EQ(sym.size(), deltas.size());
  EXPECT_LE(exact_solve_count(sym), 10);
  // Spot-check values against cold on a sparse subset (full-density cold
  // comparison of this chain lives in bench_dse's in-binary check).
  for (const std::size_t i : {std::size_t{0}, std::size_t{13}, std::size_t{59},
                              std::size_t{118}, std::size_t{119}}) {
    expect_value_identical(sym[i], cold_point(base, deltas[i]), "point " + std::to_string(i));
  }
}

// ---- 9. region ends: crossing-point walk vs bisection -------------------------

/// The region_end the crossing-point walk replaced, kept as the reference:
/// probe s_last, then bisect [s_anchor, s_last] with valid_at. Adds its
/// valid_at calls to `checks`.
i64 bisected_region_end(RegionCertifier& certifier, i64 s_anchor, i64 s_last,
                        McrpScratch& mcrp, i64& checks) {
  if (s_last <= s_anchor) return s_anchor;
  ++checks;
  if (certifier.valid_at(s_last, mcrp)) return s_last;
  i64 lo = s_anchor;
  i64 hi = s_last;
  while (hi - lo > 1) {
    const i64 mid = lo + (hi - lo) / 2;
    ++checks;
    if (certifier.valid_at(mid, mcrp)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(Regions, RegionEndMatchesBisection) {
  const i64 kLast = 63;  // 64-point rays
  Rng rng(20261018);
  RandomCsdfOptions options;
  options.max_phases = 3;
  options.max_q = 5;
  std::vector<i64> s(static_cast<std::size_t>(kLast + 1));
  std::iota(s.begin(), s.end(), i64{0});
  KIterOptions kiter;
  kiter.want_schedule = false;
  int anchors = 0;
  int guarded = 0;     // region ends whose first probe failed the numerator guard
  int multi_jump = 0;  // region ends that took two or more jumps
  i64 walk_checks = 0;
  i64 bisection_checks = 0;
  for (int trial = 0; trial < 240; ++trial) {
    // Every fourth graph has two tasks, both on the ray with every phase
    // falling to exactly zero at the last sample: each anchor's cert
    // numerator reaches 0 there (the Unbounded guard). The others put one
    // or two tasks on the ray with steps of either sign, so their periods
    // are maxima of several affine pieces.
    const bool drain = trial % 4 == 0;
    options.min_tasks = drain ? 2 : 3;
    options.max_tasks = drain ? 2 : 7;
    CsdfGraph base = random_csdf(rng, options);
    if (trial % 3 == 1) base = apply_default_buffer_capacities(base, 1, 1);
    ExecTimeRay ray;
    const int axes = drain ? 2 : 1 + static_cast<int>(rng.uniform(0, 1));
    const auto first = static_cast<TaskId>(rng.uniform(0, base.task_count() - 1));
    for (int x = 0; x < axes; ++x) {
      ExecTimeRay::Axis axis;
      axis.task = static_cast<TaskId>((first + x) % base.task_count());
      for (std::int32_t p = 0; p < base.phases(axis.task); ++p) {
        const i64 step = (drain || rng.chance(1, 3) ? -1 : 1) * rng.uniform(1, 3);
        i64 start = rng.uniform(0, 10);
        if (step < 0) start = -step * kLast + (drain ? 0 : rng.uniform(0, 20));
        axis.base.push_back(start);
        axis.step.push_back(step);
      }
      ray.axes.push_back(std::move(axis));
    }
    const std::vector<GraphDelta> deltas = exec_time_sweep(base, ray, s);
    KIterWorkspace ws;
    RegionCertifier certifier;
    for (i64 a = 0; a <= kLast; ++a) {
      const CsdfGraph g =
          add_serialization_buffers(make_variant(base, deltas[static_cast<std::size_t>(a)]));
      const KIterResult r = kiter_throughput(g, compute_repetition_vector(g), kiter, ws);
      if (r.status != ThroughputStatus::Optimal) continue;
      const CriticalCycleCert cert = extract_critical_cycle_cert(ws.constraints, ws.solved);
      if (cert.empty()) continue;
      certifier.prepare(ws.constraints, cert, ray, a);
      const i64 walked = certifier.region_end(kLast, ws.mcrp);
      const int checks = certifier.last_checks();
      ASSERT_EQ(walked, bisected_region_end(certifier, a, kLast, ws.mcrp, bisection_checks))
          << "trial " << trial << " anchor " << a << ", graph:\n" << print_csdf(base);
      ++anchors;
      guarded += walked < kLast && certifier.numerator_at(kLast) <= 0 ? 1 : 0;
      multi_jump += checks >= 3 ? 1 : 0;
      walk_checks += checks;
    }
  }
  // About 15,000 anchors, 3,800 guarded ends and 800 multi-jump ends; the
  // walk makes about 22,500 checks where bisection makes 48,800.
  EXPECT_GT(anchors, 10000);
  EXPECT_GT(guarded, 1000);
  EXPECT_GT(multi_jump, 100);
  EXPECT_LT(3 * walk_checks, 2 * bisection_checks);
}

TEST(Regions, CrossingOverflowFallsBackToBisection) {
  // Two self-loop circuits, built by hand: the cert c (node 0, task 0, off
  // the ray) with L = 3·2^61 and H = 2^61, ratio 3; and c′ (node 1, task 1,
  // on the ray d(s) = 2^25·s) with H = 2^67/(2^40 + 1), ratio about s/4.
  // Anchored at s = 4, c′ overtakes from s = 12 on, and each failed probe's
  // crossing needs L_c′(4)·num(H_c)·den(H_c′) ≈ 2^128, which overflows: the
  // walk must bisect, with the reference's probes, to the same end.
  const i64 kAnchor = 4;
  const i64 kStep = i64{1} << 25;
  ConstraintGraph cg;
  cg.graph.reset(2);
  cg.graph.add_arc(0, 0, 3 * (i64{1} << 61), Rational(i128{1} << 61, 1));
  cg.graph.add_arc(1, 1, kAnchor * kStep, Rational(i128{1} << 67, (i128{1} << 40) + 1));
  cg.k = {1, 1};
  cg.node_task = {0, 1};
  cg.node_phase = {1, 1};
  cg.node_iter = {1, 1};
  cg.task_first_node = {0, 1};
  McrpScratch mcrp;
  McrpResult solved;
  solve_max_cycle_ratio(cg.graph, McrpOptions{}, mcrp, solved);
  const CriticalCycleCert cert = extract_critical_cycle_cert(cg, solved);
  ASSERT_EQ(cert.ratio, Rational(3));
  ExecTimeRay ray;
  ray.axes.push_back({1, {0}, {kStep}});

  RegionCertifier certifier;
  certifier.prepare(cg, cert, ray, kAnchor);
  const i64 walked = certifier.region_end(63, mcrp);
  i64 bisection_checks = 0;
  EXPECT_EQ(walked, bisected_region_end(certifier, kAnchor, 63, mcrp, bisection_checks));
  EXPECT_EQ(walked, 11);
  EXPECT_EQ(certifier.last_checks(), bisection_checks);
}

}  // namespace
}  // namespace kp
