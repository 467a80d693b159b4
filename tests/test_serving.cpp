// Tests for the serving-scale dispatch layer of ThroughputService
// (api/service.hpp): the content-addressed result cache, the sharded
// work-stealing queues, and the ServiceStats observability surface.
//
//   * a cache hit is bit-identical to a cold solve — outcome, period,
//     throughput, detail string AND the critical-cycle cert — compared
//     against a cache-disabled service;
//   * mutating a caller's graph after submit() never poisons the cache
//     (the key is snapshotted from the content the service owns);
//   * a capacity-1 cache evicts strict LRU, deterministically;
//   * wall-clock-racing requests (deadline, cancel token, poll hook, time
//     budget) and warm-flagged K-Iter requests are never cached, in either
//     direction;
//   * analyze_batch stays deterministic across thread counts, shard
//     layouts and cache on/off, with duplicates mixed in: each distinct
//     request is solved exactly once per batch (in-batch dedupe);
//   * a one-worker service with multiple shards must steal everything the
//     round-robin dealt to foreign shards — a deterministic steal count;
//   * a submit() twin queued back to back behind its first copy is served
//     from the cache (dispatch or late hit), never solved twice;
//   * stats() is coherent after a batch: executed counts, histogram
//     totals, monotone percentiles, per-shard depth high-water marks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"

namespace kp {
namespace {

/// Full value-level identity, including the fields the result cache must
/// replay exactly: detail string, counters and the critical-cycle cert.
void expect_identical_analysis(const Analysis& a, const Analysis& b, int index) {
  EXPECT_EQ(a.method, b.method) << "request " << index;
  EXPECT_EQ(a.outcome, b.outcome) << "request " << index;
  EXPECT_EQ(a.quality, b.quality) << "request " << index;
  EXPECT_EQ(a.period, b.period) << "request " << index;
  EXPECT_EQ(a.throughput, b.throughput) << "request " << index;
  EXPECT_EQ(a.detail, b.detail) << "request " << index;
  EXPECT_EQ(a.rounds, b.rounds) << "request " << index;
  EXPECT_EQ(a.critical_cycle.coeffs, b.critical_cycle.coeffs) << "request " << index;
  EXPECT_EQ(a.critical_cycle.tasks, b.critical_cycle.tasks) << "request " << index;
  EXPECT_EQ(a.critical_cycle.k, b.critical_cycle.k) << "request " << index;
  EXPECT_EQ(a.critical_cycle.cycle_cost, b.critical_cycle.cycle_cost) << "request " << index;
  EXPECT_EQ(a.critical_cycle.cycle_time, b.critical_cycle.cycle_time) << "request " << index;
  EXPECT_EQ(a.critical_cycle.ratio, b.critical_cycle.ratio) << "request " << index;
}

std::vector<CsdfGraph> make_unique_graphs(int count, u64 seed) {
  Rng rng(seed);
  RandomCsdfOptions gen;
  gen.min_tasks = 3;
  gen.max_tasks = 7;
  gen.max_phases = 3;
  gen.max_q = 5;
  std::vector<CsdfGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) graphs.push_back(random_csdf(rng, gen));
  return graphs;
}

// ---- cache hit identity -----------------------------------------------------

TEST(ServingCache, HitIsBitIdenticalToColdSolve) {
  const std::vector<CsdfGraph> graphs = make_unique_graphs(25, 20260808);

  ThroughputService cold(ServiceOptions{.threads = 2, .result_cache_capacity = 0});
  ThroughputService cached(ServiceOptions{.threads = 2});

  std::vector<AnalysisRequest> requests;
  for (const CsdfGraph& g : graphs) {
    AnalysisRequest req;
    req.graph = g;
    requests.push_back(std::move(req));
  }
  const std::vector<Analysis> reference = cold.analyze_batch(requests);
  const std::vector<Analysis> first = cached.analyze_batch(requests);
  const std::vector<Analysis> second = cached.analyze_batch(requests);  // all hits

  const ServiceStats stats = cached.stats();
  EXPECT_GE(stats.cache_hits, graphs.size());  // the whole second pass
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_size, 0u);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    expect_identical_analysis(first[i], reference[i], static_cast<int>(i));
    expect_identical_analysis(second[i], reference[i], static_cast<int>(i));
    EXPECT_EQ(second[i].request_id, static_cast<i64>(i));
  }
}

TEST(ServingCache, HitsServeEveryOutcomeKind) {
  // Deadlock, Unbounded and structural-Budget analyses are deterministic
  // too — the cache must replay them, not just Value results.
  std::vector<AnalysisRequest> requests;
  {
    AnalysisRequest req;
    req.graph = figure2_deadlocked();
    requests.push_back(std::move(req));
  }
  {
    CsdfGraph g;
    const TaskId a = g.add_task("a", 3);
    const TaskId b = g.add_task("b", 5);
    g.add_buffer("", a, b, 1, 1, 0);
    AnalysisRequest req;
    req.graph = std::move(g);
    req.options.serialize_tasks = false;  // acyclic -> Unbounded
    requests.push_back(std::move(req));
  }
  {
    AnalysisRequest req;
    req.graph = figure2_graph();
    req.options.kiter.max_constraint_pairs = 10;  // structural Budget
    requests.push_back(std::move(req));
  }

  ThroughputService service(ServiceOptions{.threads = 1});
  const std::vector<Analysis> first = service.analyze_batch(requests);
  const std::vector<Analysis> second = service.analyze_batch(requests);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].outcome, Outcome::Deadlock);
  EXPECT_EQ(first[1].outcome, Outcome::Unbounded);
  EXPECT_EQ(first[2].outcome, Outcome::Budget);
  for (int i = 0; i < 3; ++i) expect_identical_analysis(second[i], first[i], i);
  EXPECT_GE(service.stats().cache_hits, 3u);
}

// ---- cache key snapshots content, not references ----------------------------

TEST(ServingCache, MutatingSubmittedGraphNeverPoisonsCache) {
  ThroughputService service(ServiceOptions{.threads = 2});
  CsdfGraph g = figure2_graph();

  AnalysisRequest req;
  req.graph = g;  // copy: the caller keeps mutating its own g below
  const i64 t1 = service.submit(std::move(req));
  const Analysis original = service.wait(t1);
  ASSERT_EQ(original.outcome, Outcome::Value);

  // Mutate the caller's graph and resubmit: the service must key on the NEW
  // content and solve it, not serve the stale entry.
  std::vector<i64> durations = g.task(0).durations;
  durations[0] += 17;
  g.set_durations(0, durations);
  AnalysisRequest mutated;
  mutated.graph = g;
  const i64 t2 = service.submit(std::move(mutated));
  const Analysis changed = service.wait(t2);
  ASSERT_EQ(changed.outcome, Outcome::Value);
  EXPECT_NE(changed.period, original.period) << "mutated graph must re-solve, not hit";

  // And the original content must still be served correctly (a hit now).
  AnalysisRequest again;
  again.graph = figure2_graph();
  const i64 t3 = service.submit(std::move(again));
  const Analysis replay = service.wait(t3);
  expect_identical_analysis(replay, original, 0);
  EXPECT_GE(service.stats().cache_hits, 1u);
}

// ---- LRU eviction -----------------------------------------------------------

TEST(ServingCache, CapacityOneEvictsStrictLru) {
  // capacity 1 = one stripe of one entry: exact global LRU, fully
  // deterministic in inline mode.
  ThroughputService service(ServiceOptions{.threads = 0, .result_cache_capacity = 1});
  const CsdfGraph a = figure2_graph();
  const CsdfGraph b = gcd_ring(6);

  (void)service.analyze(a, Method::KIter);  // miss, cached
  ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_size, 1u);

  (void)service.analyze(b, Method::KIter);  // miss, evicts a
  s = service.stats();
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_GE(s.cache_evictions, 1u);
  EXPECT_EQ(s.cache_size, 1u);

  (void)service.analyze(b, Method::KIter);  // hit
  s = service.stats();
  EXPECT_EQ(s.cache_hits, 1u);

  (void)service.analyze(a, Method::KIter);  // evicted -> miss again
  s = service.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 3u);
  EXPECT_EQ(s.cache_capacity, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.25);
}

// ---- wall-clock requests are uncacheable ------------------------------------

TEST(ServingCache, WallClockAndCancellableRequestsAreNeverCached) {
  ThroughputService service(ServiceOptions{.threads = 1});
  const CsdfGraph g = figure2_graph();

  // Generous deadline: the solve succeeds, but its outcome raced a clock.
  (void)service.analyze(g, Method::KIter, {}, /*deadline_ms=*/60000.0);
  (void)service.analyze(g, Method::KIter, {}, /*deadline_ms=*/60000.0);

  // Cancellable token (never fired): still uncacheable by construction.
  const CancelToken token = CancelToken::create();
  (void)service.analyze(g, Method::KIter, {}, -1.0, token);

  // Engine-level wall-clock budget.
  AnalysisOptions budgeted;
  budgeted.kiter.time_budget_ms = 60000.0;
  (void)service.analyze(g, Method::KIter, budgeted);

  // Symbolic execution with a time budget.
  AnalysisOptions sim_budgeted;
  sim_budgeted.sim.time_budget_ms = 60000.0;
  (void)service.analyze(g, Method::SymbolicExecution, sim_budgeted);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.cache_size, 0u);
  EXPECT_EQ(s.jobs_executed, 5u);
}

// A warm-flagged K-Iter request seeds its MCRP solves from the circuit its
// worker solved last, so its critical circuit, final K and detail depend on
// that worker's history: it is neither cached nor served from the cache.
TEST(ServingCache, WarmFlaggedKIterRequestsAreNeverCached) {
  ThroughputService service(ServiceOptions{.threads = 0});
  const CsdfGraph g = figure2_graph();
  AnalysisOptions warm;
  warm.kiter.mcrp.howard_warm_start = true;
  const Analysis first = service.analyze(g, Method::KIter, warm);
  const Analysis second = service.analyze(g, Method::KIter, warm);
  EXPECT_EQ(first.outcome, Outcome::Value);
  EXPECT_EQ(second.period, first.period);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.cache_size, 0u);
  EXPECT_EQ(s.jobs_executed, 2u);
}

// ---- determinism across threads, shards and cache setting -------------------

TEST(ServingDispatch, BatchDeterministicAcrossThreadsShardsAndCache) {
  // 20 unique graphs, each requested three times: with the cache on, the
  // in-batch dedupe solves each once and replays it for the two twins, on
  // any shard layout.
  const std::vector<CsdfGraph> graphs = make_unique_graphs(20, 20260807);
  std::vector<AnalysisRequest> requests;
  for (int rep = 0; rep < 3; ++rep) {
    for (const CsdfGraph& g : graphs) {
      AnalysisRequest req;
      req.graph = g;
      requests.push_back(std::move(req));
    }
  }

  ThroughputService reference_service(
      ServiceOptions{.threads = 0, .result_cache_capacity = 0});
  const std::vector<Analysis> reference = reference_service.analyze_batch(requests);

  struct Config {
    int threads;
    int shards;
    std::size_t cache;
  };
  for (const Config c : {Config{0, 0, 4096}, Config{2, 0, 4096}, Config{2, 5, 4096},
                         Config{5, 0, 4096}, Config{5, 2, 0}}) {
    ThroughputService service(ServiceOptions{
        .threads = c.threads, .queue_shards = c.shards, .result_cache_capacity = c.cache});
    const std::vector<Analysis> batch = service.analyze_batch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical_analysis(batch[i], reference[i], static_cast<int>(i));
      EXPECT_EQ(batch[i].request_id, static_cast<i64>(i));
    }
    if (c.cache > 0) {
      // 40 duplicate requests must be served by the cache, not re-solved.
      EXPECT_EQ(service.stats().jobs_executed, graphs.size());
      EXPECT_EQ(service.stats().cache_hits, 2 * graphs.size());
    }
  }
}

// ---- work stealing ----------------------------------------------------------

TEST(ServingDispatch, OneWorkerMustStealFromForeignShards) {
  // One worker owns shard 0; the batch is dealt round-robin over 4 shards,
  // so ~3/4 of the jobs can only be reached by stealing. Deterministic:
  // there is nobody else to take them.
  ThroughputService service(
      ServiceOptions{.threads = 1, .queue_shards = 4, .result_cache_capacity = 0});
  const std::vector<CsdfGraph> graphs = make_unique_graphs(24, 20260806);
  std::vector<AnalysisRequest> requests;
  for (const CsdfGraph& g : graphs) {
    AnalysisRequest req;
    req.graph = g;
    requests.push_back(std::move(req));
  }
  const std::vector<Analysis> batch = service.analyze_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.jobs_executed, requests.size());
  EXPECT_GE(s.steals, requests.size() / 2);  // exactly 18 of 24 here
  ASSERT_EQ(s.shard_depth_high_water.size(), 4u);
  for (const u64 depth : s.shard_depth_high_water) EXPECT_GE(depth, 1u);
}

TEST(ServingDispatch, SubmitRoutesByContentAndServesTicketsFromCache) {
  ThroughputService service(ServiceOptions{.threads = 2, .queue_shards = 3});
  const CsdfGraph g = gcd_ring(5);

  AnalysisRequest first;
  first.graph = g;
  const Analysis cold = service.wait(service.submit(std::move(first)));
  ASSERT_EQ(cold.outcome, Outcome::Value);

  // Identical content: the ticket is completed from the cache before
  // submit() even returns.
  AnalysisRequest twin;
  twin.graph = g;
  const i64 ticket = service.submit(std::move(twin));
  const Analysis warm = service.wait(ticket);
  expect_identical_analysis(warm, cold, 0);
  EXPECT_EQ(warm.request_id, ticket);
  EXPECT_EQ(warm.queue_ms, 0.0);
  EXPECT_GE(service.stats().cache_hits, 1u);
}

TEST(ServingDispatch, BackToBackSubmitTwinsSolveOnce) {
  // The second copy is submitted before the first is collected: it is
  // either a dispatch hit (the first already finished) or a late hit on
  // the worker (it queued behind the first). Both paths skip the solve.
  ThroughputService service(ServiceOptions{.threads = 1});
  const CsdfGraph g = gcd_ring(7);
  AnalysisRequest first;
  first.graph = g;
  AnalysisRequest twin;
  twin.graph = g;
  const i64 t1 = service.submit(std::move(first));
  const i64 t2 = service.submit(std::move(twin));
  const Analysis a = service.wait(t1);
  const Analysis b = service.wait(t2);
  expect_identical_analysis(b, a, 0);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.jobs_executed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
}

// ---- stats surface ----------------------------------------------------------

TEST(ServingStats, SnapshotIsCoherentAfterBatch) {
  ThroughputService service(ServiceOptions{.threads = 2});
  const std::vector<CsdfGraph> graphs = make_unique_graphs(30, 20260804);
  std::vector<AnalysisRequest> requests;
  for (const CsdfGraph& g : graphs) {
    AnalysisRequest req;
    req.graph = g;
    requests.push_back(std::move(req));
  }
  const std::vector<Analysis> batch = service.analyze_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.jobs_executed, s.cache_misses);  // all unique, all cacheable
  EXPECT_EQ(s.cache_hits + s.cache_misses, requests.size());
  EXPECT_EQ(s.solve.total(), s.jobs_executed);
  EXPECT_GE(s.queue.total(), s.jobs_executed);  // every dequeued job
  EXPECT_LE(s.queue.percentile_ms(0.50), s.queue.percentile_ms(0.99));
  EXPECT_LE(s.solve.percentile_ms(0.50), s.solve.percentile_ms(0.99));
  EXPECT_GT(s.solve.percentile_ms(0.99), 0.0);
  EXPECT_EQ(s.shard_depth_high_water.size(),
            static_cast<std::size_t>(service.shard_count()));
  u64 max_depth = 0;
  for (const u64 d : s.shard_depth_high_water) max_depth = std::max(max_depth, d);
  EXPECT_GE(max_depth, 1u);
  EXPECT_EQ(s.cache_capacity, 4096u);
  EXPECT_GE(s.hit_rate(), 0.0);
  EXPECT_LE(s.hit_rate(), 1.0);
}

}  // namespace
}  // namespace kp
