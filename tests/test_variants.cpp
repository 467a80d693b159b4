// The cross-variant constraint-cache engine and the VariantBatch API:
//
//   1. Randomized variant equivalence: >= 100 mixed deltas (execution time,
//      marking, rate scaling) over random bases, analyzed through ONE warm
//      shared workspace, are bit-identical to cold fresh-workspace runs;
//      the warm run must exercise rebuild, splice and in-place rounds, and
//      after each variant the cache's snapshot must be the variant's
//      append_content_snapshot words, with its q beside them.
//   2. An execution-time-only warm variant patch re-enumerates zero buffers
//      and performs zero heap allocations (alloc-hook-verified), and the
//      patched graph is arc-for-arc identical to a fresh build.
//   3. A marking (buffer-size) delta re-emits exactly one buffer's span
//      through the splice path.
//   4. A rate delta that changes the repetition vector, and a graph of a
//      different shape, both fall back to a recorded full rebuild; a rate
//      delta that moves q of only part of the graph patches, and the
//      cache keeps the new q.
//   5. analyze_variants == cold per-variant analyze_throughput on a
//      randomized mixed sweep, and is deterministic across thread counts.
//      These run with warm_start OFF: bit-identical detail strings (rounds,
//      final K) are the warm-off contract. The warm sweep's value-identity
//      and lifecycle guarantees are covered by tests/test_warmstart.cpp.
//   6. Delta validation errors name the offending edit's field, position and
//      target id — apply, revert and the analyze_variants funnel alike.
//   7. apply_delta + revert_delta round-trips 100 random mixed deltas to a
//      graph bit-identical to the base, including the derived rate caches.
//   8. Degenerate batches: an empty delta list yields an empty result (and
//      leaves the service healthy), and a warm single-variant batch is
//      bit-identical to a cold one-shot analysis (batch-start warm reset).
//   9. A K-Iter batch keeps its serialization self-loops and its q apart
//      from the per-request scratch: a plain request a pool worker serves
//      between two variant jobs of one batch changes no variant's result,
//      and a delta that edits rates gets its own q while the variants
//      around it keep the base's.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "api/service.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "core/kperiodic.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"

namespace kp {
namespace {

/// The patched graph must be arc-for-arc identical to a fresh stride build
/// (same ids, payloads, node maps) — the engine's strongest promise.
void expect_identical(const ConstraintGraph& patched, const ConstraintGraph& fresh,
                      const std::string& context) {
  ASSERT_EQ(patched.graph.node_count(), fresh.graph.node_count()) << context;
  ASSERT_EQ(patched.graph.arc_count(), fresh.graph.arc_count()) << context;
  EXPECT_EQ(patched.k, fresh.k) << context;
  EXPECT_EQ(patched.task_first_node, fresh.task_first_node) << context;
  EXPECT_EQ(patched.node_task, fresh.node_task) << context;
  EXPECT_EQ(patched.node_phase, fresh.node_phase) << context;
  EXPECT_EQ(patched.node_iter, fresh.node_iter) << context;
  for (std::int32_t a = 0; a < fresh.graph.arc_count(); ++a) {
    const auto& pa = patched.graph.graph().arc(a);
    const auto& fa = fresh.graph.graph().arc(a);
    ASSERT_TRUE(pa.src == fa.src && pa.dst == fa.dst &&
                patched.graph.cost(a) == fresh.graph.cost(a) &&
                patched.graph.time(a) == fresh.graph.time(a))
        << context << " arc " << a;
  }
}

/// The CSR out-adjacency must also match a fresh finalize: an in-place
/// round keeps the live graph's CSR, and a splice round rebuilds it over a
/// spliced arc list.
void expect_identical_adjacency(const ConstraintGraph& patched, const ConstraintGraph& fresh,
                                const std::string& context) {
  for (std::int32_t v = 0; v < fresh.graph.node_count(); ++v) {
    const auto po = patched.graph.graph().out_arcs(v);
    const auto fo = fresh.graph.graph().out_arcs(v);
    ASSERT_TRUE(std::equal(po.begin(), po.end(), fo.begin(), fo.end()))
        << context << " out-adjacency of node " << v;
  }
}

RandomCsdfOptions small_graphs() {
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 7;
  options.max_phases = 3;
  options.max_q = 6;
  return options;
}

/// A random consistency-preserving delta: execution times, markings, and
/// rate vectors scaled by a common factor (q is a ratio invariant, so
/// scaling i_b and o_b together keeps the graph consistent).
GraphDelta random_delta(Rng& rng, const CsdfGraph& base) {
  GraphDelta d;
  const auto kind = rng.uniform(0, 3);  // 3 = mixed
  if (kind == 0 || kind == 3) {
    const auto t = static_cast<TaskId>(rng.uniform(0, base.task_count() - 1));
    std::vector<i64> dur;
    for (std::int32_t p = 0; p < base.phases(t); ++p) dur.push_back(rng.uniform(0, 9));
    d.exec_times.push_back({t, std::move(dur)});
  }
  if (kind == 1 || kind == 3) {
    const auto b = static_cast<BufferId>(rng.uniform(0, base.buffer_count() - 1));
    // Never starve below the base marking: liveness of random cyclic graphs
    // depends on it, and DSE sweeps size buffers UP from a live base.
    d.markings.push_back({b, base.buffer(b).initial_tokens + rng.uniform(0, 5)});
  }
  if (kind == 2) {
    const auto bid = static_cast<BufferId>(rng.uniform(0, base.buffer_count() - 1));
    const Buffer& b = base.buffer(bid);
    const i64 scale = rng.uniform(2, 3);
    GraphDelta::Rates r;
    r.buffer = bid;
    for (const i64 v : b.prod) r.prod.push_back(v * scale);
    for (const i64 v : b.cons) r.cons.push_back(v * scale);
    d.rates.push_back(std::move(r));
  }
  return d;
}

void expect_same_analysis(const Analysis& warm, const Analysis& cold,
                          const std::string& context) {
  EXPECT_EQ(warm.outcome, cold.outcome) << context;
  EXPECT_EQ(warm.quality, cold.quality) << context;
  EXPECT_EQ(warm.period, cold.period) << context;
  EXPECT_EQ(warm.throughput, cold.throughput) << context;
  EXPECT_EQ(warm.detail, cold.detail) << context;
}

// ---- 1. randomized cross-variant equivalence through one warm workspace ----

TEST(Variants, RandomizedWarmWorkspaceMatchesColdRuns) {
  KIterWorkspace shared;  // never invalidated: the content key must re-key
  int variants = 0;
  for (u64 seed = 1; variants < 120; ++seed) {
    Rng rng(seed);
    const CsdfGraph base = random_csdf(rng, small_graphs());
    for (int v = 0; v < 4; ++v) {
      const GraphDelta delta = random_delta(rng, base);
      const CsdfGraph variant = make_variant(base, delta);
      const RepetitionVector rv = compute_repetition_vector(variant);
      ASSERT_TRUE(rv.consistent) << "seed " << seed << " variant " << v;

      const KIterResult warm = kiter_throughput(variant, rv, KIterOptions{}, shared);
      const KIterResult cold = kiter_throughput(variant, rv, KIterOptions{});
      const std::string context = "seed " + std::to_string(seed) + " variant " +
                                  std::to_string(v);
      EXPECT_EQ(warm.status, cold.status) << context;
      EXPECT_EQ(warm.period, cold.period) << context;
      EXPECT_EQ(warm.throughput, cold.throughput) << context;
      EXPECT_EQ(warm.k, cold.k) << context;
      EXPECT_EQ(warm.rounds, cold.rounds) << context;
      EXPECT_EQ(warm.critical_tasks, cold.critical_tasks) << context;
      EXPECT_EQ(warm.schedule.starts, cold.schedule.starts) << context;
      EXPECT_EQ(warm.schedule.task_periods, cold.schedule.task_periods) << context;

      // The cache's snapshot is the result cache's encoding of the variant
      // its last round built, with q per task beside it.
      ASSERT_TRUE(shared.cache.valid) << context;
      std::vector<i64> words;
      append_content_snapshot(variant, words);
      EXPECT_EQ(shared.cache.key, words) << context;
      EXPECT_EQ(shared.cache.key_q, rv.q) << context;
      ++variants;
    }
  }
  // The sweep must exercise every round kind — rebuild, splice and in
  // place — not keep re-keying through full rebuilds.
  EXPECT_GT(shared.cache.rebuilt_rounds, 0);
  EXPECT_GT(shared.cache.patched_rounds, 0);
  EXPECT_GT(shared.cache.payload_rounds, 0);
}

// ---- 2. execution-time-only patch: zero re-enumeration, zero allocation ----

TEST(Variants, ExecTimeOnlyWarmPatchReenumeratesNothingAndDoesNotAllocate) {
  const CsdfGraph base = gcd_ring(32);
  const RepetitionVector rv = compute_repetition_vector(base);
  ASSERT_TRUE(rv.consistent);
  const std::vector<i64> k{1, 16, 32};

  // Two variants differing from the base (and each other) only in one
  // task's execution time. Materialized up front: only the patch itself is
  // inside the counted window.
  const std::vector<GraphDelta> deltas = exec_time_sweep(base, 1, std::vector<i64>{5, 9});
  const CsdfGraph va = make_variant(base, deltas[0]);
  const CsdfGraph vb = make_variant(base, deltas[1]);

  ConstraintGraph cg;
  ConstraintGraphCache cache;
  ASSERT_TRUE(build_constraint_graph_incremental(va, rv, k, cg, cache));  // cold
  EXPECT_EQ(cache.rebuilt_rounds, 1);
  ASSERT_TRUE(build_constraint_graph_incremental(vb, rv, k, cg, cache));  // warm-up patch
  EXPECT_EQ(cache.payload_rounds, 1);

  const std::uint64_t before = g_alloc_count.load();
  ASSERT_TRUE(build_constraint_graph_incremental(va, rv, k, cg, cache));
  ASSERT_TRUE(build_constraint_graph_incremental(vb, rv, k, cg, cache));
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(after - before, 0u) << "a warm execution-time-only patch must not touch the heap";
  EXPECT_EQ(cache.payload_rounds, 3);
  EXPECT_EQ(cache.last_regenerated_buffers, 0) << "no buffer may be re-enumerated";
  EXPECT_EQ(cache.rebuilt_rounds, 1);
  EXPECT_EQ(cache.patched_rounds, 0) << "no splice round should have been needed";

  const ConstraintGraph fresh = build_constraint_graph(vb, rv, k);
  expect_identical(cg, fresh, "payload-patched graph");
  expect_identical_adjacency(cg, fresh, "payload-patched graph");
}

// ---- 3. a marking delta re-emits exactly one buffer's span ------------------

TEST(Variants, MarkingDeltaReemitsOneBufferSpan) {
  const CsdfGraph base = gcd_ring(12);
  const RepetitionVector rv = compute_repetition_vector(base);
  ASSERT_TRUE(rv.consistent);
  const std::vector<i64> k{1, 3, 4};

  GraphDelta delta;
  delta.markings.push_back({0, base.buffer(0).initial_tokens + 7});
  const CsdfGraph variant = make_variant(base, delta);

  ConstraintGraph cg;
  ConstraintGraphCache cache;
  ASSERT_TRUE(build_constraint_graph_incremental(base, rv, k, cg, cache));
  ASSERT_TRUE(build_constraint_graph_incremental(variant, rv, k, cg, cache));
  EXPECT_EQ(cache.patched_rounds, 1);
  EXPECT_EQ(cache.last_regenerated_buffers, 1) << "only the re-marked buffer regenerates";

  const ConstraintGraph fresh = build_constraint_graph(variant, rv, k);
  expect_identical(cg, fresh, "marking-patched graph");
  expect_identical_adjacency(cg, fresh, "marking-patched graph");

  // And back: reverting the marking patches one span again.
  ASSERT_TRUE(build_constraint_graph_incremental(base, rv, k, cg, cache));
  EXPECT_EQ(cache.patched_rounds, 2);
  expect_identical(cg, build_constraint_graph(base, rv, k), "reverted graph");
}

// ---- 4. rate / shape changes fall back to a full rebuild --------------------

TEST(Variants, RvChangingRateDeltaFallsBackToFullRebuild) {
  // Two tasks in one cycle: scaling the cycle's rates changes q_b (3 -> 4),
  // so every buffer's fingerprint moves and nothing survives to splice.
  CsdfGraph base;
  const TaskId a = base.add_task("a", std::vector<i64>{2, 1});
  const TaskId b = base.add_task("b", 3);
  base.add_buffer("ab", a, b, std::vector<i64>{2, 1}, std::vector<i64>{1}, 4);
  base.add_buffer("ba", b, a, std::vector<i64>{1}, std::vector<i64>{1, 2}, 4);

  GraphDelta delta;
  delta.rates.push_back({0, {2, 2}, {1}});     // i_ab: 3 -> 4
  delta.rates.push_back({1, {1}, {2, 2}});     // o_ba: 3 -> 4
  const CsdfGraph variant = make_variant(base, delta);
  const RepetitionVector rv_base = compute_repetition_vector(base);
  const RepetitionVector rv_variant = compute_repetition_vector(variant);
  ASSERT_TRUE(rv_base.consistent);
  ASSERT_TRUE(rv_variant.consistent);
  ASSERT_NE(rv_base.of(b), rv_variant.of(b));

  ConstraintGraph cg;
  ConstraintGraphCache cache;
  ASSERT_TRUE(build_constraint_graph_incremental(base, rv_base, {1, 3}, cg, cache));
  ASSERT_TRUE(build_constraint_graph_incremental(variant, rv_variant, {1, 3}, cg, cache));
  EXPECT_EQ(cache.rebuilt_rounds, 2) << "an rv-changing rate delta must rebuild";
  EXPECT_EQ(cache.patched_rounds, 0);
  expect_identical(cg, build_constraint_graph(variant, rv_variant, {1, 3}), "rate fallback");
}

TEST(Variants, RateDeltaMovingPartOfQPatchesAndKeepsQCurrent) {
  // A chain a -> b -> c -> d: doubling b -> c's production doubles q of c
  // and d only, so a -> b keeps its fingerprint and the round patches.
  CsdfGraph base;
  const TaskId a = base.add_task("a", 1);
  const TaskId b = base.add_task("b", 2);
  const TaskId c = base.add_task("c", 3);
  const TaskId d = base.add_task("d", 1);
  base.add_buffer("ab", a, b, 1, 1, 0);
  base.add_buffer("bc", b, c, 1, 1, 0);
  base.add_buffer("cd", c, d, 1, 1, 0);

  GraphDelta delta;
  delta.rates.push_back({1, {2}, {1}});
  const CsdfGraph variant = make_variant(base, delta);
  const RepetitionVector rv_base = compute_repetition_vector(base);
  const RepetitionVector rv_variant = compute_repetition_vector(variant);
  ASSERT_EQ(rv_base.q, (std::vector<i64>{1, 1, 1, 1}));
  ASSERT_EQ(rv_variant.q, (std::vector<i64>{1, 1, 2, 2}));

  const std::vector<i64> k{1, 1, 1, 1};
  ConstraintGraph cg;
  ConstraintGraphCache cache;
  ASSERT_TRUE(build_constraint_graph_incremental(base, rv_base, k, cg, cache));
  ASSERT_TRUE(build_constraint_graph_incremental(variant, rv_variant, k, cg, cache));
  EXPECT_EQ(cache.rebuilt_rounds, 1) << "a -> b keeps its fingerprint: the round patches";
  EXPECT_EQ(cache.last_regenerated_buffers, 2) << "b -> c (rates) and c -> d (producer q)";
  EXPECT_EQ(cache.key_q, rv_variant.q);
  expect_identical(cg, build_constraint_graph(variant, rv_variant, k), "q-moving patch");

  // The snapshot holds the variant's q, so the same request again is a
  // no-op round.
  const i64 patches = cache.patched_rounds + cache.payload_rounds;
  ASSERT_TRUE(build_constraint_graph_incremental(variant, rv_variant, k, cg, cache));
  EXPECT_EQ(cache.patched_rounds + cache.payload_rounds, patches);
}

TEST(Variants, DifferentShapeFallsBackToFullRebuild) {
  const CsdfGraph ring = gcd_ring(8);
  CsdfGraph pair;
  const TaskId a = pair.add_task("a", 1);
  const TaskId b = pair.add_task("b", 2);
  pair.add_buffer("ab", a, b, 2, 1, 0);
  pair.add_buffer("ba", b, a, 1, 2, 4);

  ConstraintGraph cg;
  ConstraintGraphCache cache;
  const RepetitionVector rv_ring = compute_repetition_vector(ring);
  const RepetitionVector rv_pair = compute_repetition_vector(pair);
  ASSERT_TRUE(build_constraint_graph_incremental(ring, rv_ring, {1, 8, 8}, cg, cache));
  ASSERT_TRUE(build_constraint_graph_incremental(pair, rv_pair, {1, 2}, cg, cache));
  EXPECT_EQ(cache.rebuilt_rounds, 2) << "a different shape must re-key through a rebuild";
  expect_identical(cg, build_constraint_graph(pair, rv_pair, {1, 2}), "shape fallback");
}

// ---- 5. the VariantBatch service path ---------------------------------------

TEST(Variants, AnalyzeVariantsMatchesColdPerVariantAnalyses) {
  Rng rng(2026);
  RandomCsdfOptions options = small_graphs();
  int variants = 0;
  for (u64 seed = 500; variants < 100; ++seed) {
    Rng graph_rng(seed);
    VariantBatch batch;
    batch.warm_start = false;  // the bit-identity contract is the warm-off one
    batch.base = random_csdf(graph_rng, options);
    for (int v = 0; v < 10; ++v) batch.deltas.push_back(random_delta(rng, batch.base));

    ThroughputService service(ServiceOptions{0});  // inline: one warm worker
    const std::vector<Analysis> warm = service.analyze_variants(batch);
    ASSERT_EQ(warm.size(), batch.deltas.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const Analysis cold =
          analyze_throughput(make_variant(batch.base, batch.deltas[i]), batch.method);
      expect_same_analysis(warm[i], cold,
                           "seed " + std::to_string(seed) + " variant " + std::to_string(i));
      EXPECT_EQ(warm[i].request_id, static_cast<i64>(i));
      ++variants;
    }
  }
}

TEST(Variants, AnalyzeVariantsDeterministicAcrossThreadCounts) {
  Rng rng(7);
  VariantBatch batch;
  batch.warm_start = false;  // the bit-identity contract is the warm-off one
  batch.base = gcd_ring(16);
  std::vector<i64> values;
  for (int v = 1; v <= 40; ++v) values.push_back(rng.uniform(1, 12));
  batch.deltas = exec_time_sweep(batch.base, 1, values);
  for (int v = 0; v < 20; ++v) {
    batch.deltas.push_back(random_delta(rng, batch.base));
  }

  ThroughputService inline_service(ServiceOptions{0});
  const std::vector<Analysis> reference = inline_service.analyze_variants(batch);
  ASSERT_EQ(reference.size(), batch.deltas.size());
  for (const int threads : {2, 5}) {
    ThroughputService pool(ServiceOptions{threads});
    const std::vector<Analysis> got = pool.analyze_variants(batch);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_analysis(got[i], reference[i],
                           std::to_string(threads) + " threads, variant " + std::to_string(i));
    }
  }
}

TEST(Variants, CancelledBatchReportsBudgetWithoutRunning) {
  VariantBatch batch;
  batch.base = gcd_ring(8);
  batch.deltas = exec_time_sweep(batch.base, 1, std::vector<i64>{1, 2, 3});
  batch.cancel = CancelToken::create();
  batch.cancel.cancel();

  ThroughputService service(ServiceOptions{0});
  const std::vector<Analysis> results = service.analyze_variants(batch);
  ASSERT_EQ(results.size(), 3u);
  for (const Analysis& a : results) EXPECT_EQ(a.outcome, Outcome::Budget);
}

TEST(Variants, InvalidDeltaThrows) {
  VariantBatch batch;
  batch.base = gcd_ring(8);
  batch.deltas = exec_time_sweep(batch.base, 1, std::vector<i64>{1});

  // A delta naming a nonexistent base id throws up front — it must never
  // reach the workers, where ids resolve against the serialization-
  // augmented copy (a stale buffer id would alias a 'serial:' self-loop).
  GraphDelta bad_id;
  bad_id.markings.push_back({batch.base.buffer_count(), 5});
  batch.deltas.push_back(bad_id);
  ThroughputService service(ServiceOptions{0});
  EXPECT_THROW((void)service.analyze_variants(batch), ModelError);

  // A structurally invalid delta (wrong vector size) throws after the
  // batch drains, like an engine error in analyze_batch would.
  batch.deltas.back() = GraphDelta{};
  batch.deltas.back().exec_times.push_back({1, {1, 2, 3}});  // phi(t1) == 1
  EXPECT_THROW((void)service.analyze_variants(batch), ModelError);

  // The worker scratch re-keys: a following healthy batch still works.
  batch.deltas.pop_back();
  const std::vector<Analysis> ok = service.analyze_variants(batch);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].outcome, Outcome::Value);
}

// ---- 6. delta validation errors name the offending edit ---------------------

template <typename Fn>
std::string thrown_model_error(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return {};
}

TEST(Variants, DeltaErrorsNameFieldPositionAndTarget) {
  const CsdfGraph base = gcd_ring(8);

  // Out-of-range task id in the second exec_times edit.
  GraphDelta bad_task;
  bad_task.exec_times.push_back({0, {1}});
  bad_task.exec_times.push_back({99, {1}});
  CsdfGraph g = base;
  std::string msg = thrown_model_error([&] { apply_delta(g, bad_task); });
  EXPECT_NE(msg.find("exec_times[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("task 99"), std::string::npos) << msg;

  // Wrong durations size (phi(t1) == 1): field + position + target.
  GraphDelta bad_size;
  bad_size.exec_times.push_back({1, {1, 2, 3}});
  g = base;
  msg = thrown_model_error([&] { apply_delta(g, bad_size); });
  EXPECT_NE(msg.find("exec_times[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("task 1"), std::string::npos) << msg;

  // Negative marking on a valid buffer.
  GraphDelta bad_marking;
  bad_marking.markings.push_back({2, -1});
  g = base;
  msg = thrown_model_error([&] { apply_delta(g, bad_marking); });
  EXPECT_NE(msg.find("markings[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("buffer 2"), std::string::npos) << msg;

  // Wrong-size rate vector.
  GraphDelta bad_rates;
  bad_rates.rates.push_back({0, {1, 2, 3, 4, 5, 6, 7}, {1}});
  g = base;
  msg = thrown_model_error([&] { apply_delta(g, bad_rates); });
  EXPECT_NE(msg.find("rates[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("buffer 0"), std::string::npos) << msg;

  // revert_delta reports the same positions (it re-applies base values
  // through the same setters).
  g = base;
  msg = thrown_model_error([&] { revert_delta(g, bad_task, base); });
  EXPECT_NE(msg.find("exec_times[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("task 99"), std::string::npos) << msg;

  // The pure target check, and its batch-funnel wrapper naming the delta.
  msg = thrown_model_error([&] { validate_delta_targets(base, bad_task); });
  EXPECT_NE(msg.find("exec_times[1]"), std::string::npos) << msg;
  VariantBatch batch;
  batch.base = base;
  batch.deltas = exec_time_sweep(base, 1, std::vector<i64>{2});
  batch.deltas.push_back(bad_task);
  ThroughputService service(ServiceOptions{0});
  msg = thrown_model_error([&] { (void)service.analyze_variants(batch); });
  EXPECT_NE(msg.find("deltas[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exec_times[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("task 99"), std::string::npos) << msg;
}

// ---- 7. apply + revert round-trips to a bit-identical graph -----------------

void expect_graph_bits_equal(const CsdfGraph& got, const CsdfGraph& want,
                             const std::string& context) {
  ASSERT_EQ(got.task_count(), want.task_count()) << context;
  ASSERT_EQ(got.buffer_count(), want.buffer_count()) << context;
  for (TaskId t = 0; t < want.task_count(); ++t) {
    EXPECT_EQ(got.task(t).durations, want.task(t).durations) << context << " task " << t;
  }
  for (BufferId b = 0; b < want.buffer_count(); ++b) {
    const Buffer& gb = got.buffer(b);
    const Buffer& wb = want.buffer(b);
    const std::string where = context + " buffer " + std::to_string(b);
    EXPECT_EQ(gb.initial_tokens, wb.initial_tokens) << where;
    EXPECT_EQ(gb.prod, wb.prod) << where;
    EXPECT_EQ(gb.cons, wb.cons) << where;
    // The derived caches must round-trip too — the constraint builders and
    // the mode-sequence simulator read them, not the raw vectors.
    EXPECT_EQ(gb.total_prod, wb.total_prod) << where;
    EXPECT_EQ(gb.total_cons, wb.total_cons) << where;
    EXPECT_EQ(gb.cum_prod, wb.cum_prod) << where;
    EXPECT_EQ(gb.cum_cons, wb.cum_cons) << where;
  }
}

TEST(Variants, ApplyRevertRoundTripIsBitIdentical) {
  Rng rng(99);
  int count = 0;
  for (u64 seed = 1; count < 100; ++seed) {
    Rng graph_rng(seed);
    const CsdfGraph base = random_csdf(graph_rng, small_graphs());
    CsdfGraph work = base;  // ONE materialized graph, morphed in place
    for (int v = 0; v < 5 && count < 100; ++v, ++count) {
      const GraphDelta delta = random_delta(rng, base);
      apply_delta(work, delta);
      revert_delta(work, delta, base);
      expect_graph_bits_equal(work, base,
                              "seed " + std::to_string(seed) + " delta " + std::to_string(v));
    }
  }
}

// ---- 8. degenerate batches: empty, and single-variant == cold ---------------

TEST(Variants, EmptyAndSingleVariantBatches) {
  ThroughputService service(ServiceOptions{0});

  VariantBatch empty;
  empty.base = gcd_ring(8);
  EXPECT_TRUE(service.analyze_variants(empty).empty());

  // warm_start stays ON, but the batch boundary resets warm state, so a
  // one-variant batch is bit-identical to a cold one-shot analysis — every
  // time, not just the first.
  VariantBatch single;
  single.base = gcd_ring(8);
  single.deltas = exec_time_sweep(single.base, 1, std::vector<i64>{7});
  const Analysis cold =
      analyze_throughput(make_variant(single.base, single.deltas[0]), single.method);
  for (int round = 0; round < 3; ++round) {
    const std::vector<Analysis> got = service.analyze_variants(single);
    ASSERT_EQ(got.size(), 1u);
    expect_same_analysis(got[0], cold, "single-variant round " + std::to_string(round));
    EXPECT_EQ(got[0].rounds, cold.rounds) << "round " << round;
  }

  // And interleaving an empty batch leaves the service healthy.
  EXPECT_TRUE(service.analyze_variants(empty).empty());
  const std::vector<Analysis> after = service.analyze_variants(single);
  ASSERT_EQ(after.size(), 1u);
  expect_same_analysis(after[0], cold, "after empty batch");
}

// ---- 9. batch state vs per-request scratch; rate deltas and q --------------

TEST(Variants, PlainRequestBetweenVariantJobsKeepsTheBatchSelfLoops) {
  // One worker, one shard, no result cache: the worker pops its shard LIFO,
  // so the request the poll hook submits during the first variant job it
  // takes (variant 7) runs right after that job and before the other seven.
  ServiceOptions so;
  so.threads = 1;
  so.queue_shards = 1;
  so.result_cache_capacity = 0;
  ThroughputService service(so);

  // Serialization decides this graph: period 126 with the self-loops,
  // Unbounded without them.
  Rng rng(99);
  RandomCsdfOptions gen = small_graphs();
  gen.min_tasks = 6;
  gen.max_tasks = 6;
  VariantBatch batch;
  batch.warm_start = false;  // the bit-identity contract is the warm-off one
  batch.base = random_csdf(rng, gen);
  batch.deltas = exec_time_sweep(batch.base, 0, std::vector<i64>{1, 2, 3, 4, 5, 6, 7, 8});
  AnalysisOptions unserialized;
  unserialized.serialize_tasks = false;
  ASSERT_EQ(analyze_throughput(batch.base, Method::KIter).period, Rational(126));
  ASSERT_EQ(analyze_throughput(batch.base, Method::KIter, unserialized).outcome,
            Outcome::Unbounded);

  // A one-task graph that has its own one-token self-loop: serializing it
  // adds nothing, so its request leaves the per-request scratch empty.
  CsdfGraph plain;
  const TaskId t = plain.add_task("t", 3);
  plain.add_buffer("own", t, t, 1, 1, 1);

  struct Interleave {
    ThroughputService* service = nullptr;
    const CsdfGraph* plain = nullptr;
    std::atomic<bool> submitted{false};
    i64 ticket = -1;

    static bool hook(void* ctx) {
      auto& self = *static_cast<Interleave*>(ctx);
      if (!self.submitted.exchange(true)) {
        AnalysisRequest request;
        request.graph = *self.plain;
        self.ticket = self.service->submit(std::move(request));
      }
      return false;
    }
  } interleave;
  interleave.service = &service;
  interleave.plain = &plain;
  batch.options.kiter.poll = &Interleave::hook;
  batch.options.kiter.poll_ctx = &interleave;

  const std::vector<Analysis> got = service.analyze_variants(batch);
  ASSERT_TRUE(interleave.submitted.load());
  ASSERT_EQ(got.size(), batch.deltas.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Analysis cold = analyze_throughput(make_variant(batch.base, batch.deltas[i]),
                                             Method::KIter);
    expect_same_analysis(got[i], cold, "variant " + std::to_string(i));
  }
  const Analysis between = service.wait(interleave.ticket);
  ASSERT_EQ(between.outcome, Outcome::Value);
  EXPECT_EQ(between.period, Rational(3));
}

TEST(Variants, RateDeltasGetTheirOwnRepetitionVector) {
  // The two-task cycle of RvChangingRateDeltaFallsBackToFullRebuild: the
  // rate delta moves q_b from 3 to 4. Solving it with the base's q gives 9
  // where 12 is right, and solving the next rate-free variant with the rate
  // variant's q gives 12 where 9 is right.
  CsdfGraph base;
  const TaskId a = base.add_task("a", std::vector<i64>{2, 1});
  const TaskId b = base.add_task("b", 3);
  base.add_buffer("ab", a, b, std::vector<i64>{2, 1}, std::vector<i64>{1}, 4);
  base.add_buffer("ba", b, a, std::vector<i64>{1}, std::vector<i64>{1, 2}, 4);

  GraphDelta exec_b;
  exec_b.exec_times.push_back({b, {5}});
  GraphDelta rates;
  rates.rates.push_back({0, {2, 2}, {1}});
  rates.rates.push_back({1, {1}, {2, 2}});
  GraphDelta exec_a;
  exec_a.exec_times.push_back({a, {4, 1}});
  GraphDelta marking;
  marking.markings.push_back({1, 6});

  VariantBatch batch;
  batch.base = base;
  batch.deltas = {exec_b, rates, exec_a, rates, marking, exec_b};
  const std::vector<i64> periods{15, 12, 9, 12, 9, 15};
  std::vector<Analysis> cold;
  for (std::size_t i = 0; i < batch.deltas.size(); ++i) {
    cold.push_back(analyze_throughput(make_variant(base, batch.deltas[i]), Method::KIter));
    ASSERT_EQ(cold[i].period, Rational(periods[i])) << "cold variant " << i;
  }

  for (const bool warm : {false, true}) {
    batch.warm_start = warm;
    for (const int threads : {0, 1, 2}) {
      ThroughputService service(ServiceOptions{threads});
      const std::vector<Analysis> got = service.analyze_variants(batch);
      ASSERT_EQ(got.size(), cold.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string context = std::string(warm ? "warm" : "cold") + " sweep, " +
                                    std::to_string(threads) + " threads, variant " +
                                    std::to_string(i);
        EXPECT_EQ(got[i].outcome, Outcome::Value) << context;
        EXPECT_EQ(got[i].period, Rational(periods[i])) << context;
        if (!warm) expect_same_analysis(got[i], cold[i], context);
      }
    }
  }
}

}  // namespace
}  // namespace kp
