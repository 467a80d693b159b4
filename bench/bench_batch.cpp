// Batch-throughput benchmark: graphs/sec of ThroughputService::analyze_batch
// versus worker-pool size, plus the serving-path story — the
// content-addressed result cache under duplicate-heavy traffic and the
// sharded work-stealing queue counters.
//
// The serving scenario of the ROADMAP: a design-space explorer fires
// hundreds of graph variants at the analysis service; each worker keeps one
// KIterWorkspace warm across everything it serves, so per-analysis cost is
// enumeration + solve, not allocation. Three sections:
//
//   1. Thread sweep (cache OFF, so repeats measure solves, not lookups):
//      end-to-end batch wall time per thread count (best of N repeats),
//      with per-case steal counts, shard-depth high-water marks and
//      queue/solve p50/p99 from ServiceStats — so a flat speedup_vs_1 on a
//      1-core container is distinguishable from a contention bug (zero
//      steals + shallow queues on 1 core = starved of hardware; deep
//      queues + no steals on many cores = a dispatch problem).
//   2. Cache identity check: the same batch through a cache-ON service
//      must be bit-identical to the cache-OFF reference (exit 1 if not).
//   3. --repeat-mix: duplicate-heavy serving traffic — a pool of unique
//      graphs resubmitted at 50% and 90% duplicate rates, cache-off vs
//      cache-on (cold, in-batch dedupe) vs resubmit (all hits), all on
//      ONE worker so the win is the cache, not parallelism. Each case
//      interleaves 9 rounds (5 with --smoke) of one pass of each kind and
//      reports the median of the per-round speedups.
//
// All thread counts and cache settings must return bit-identical
// outcome/period/K sequences — the determinism contract of analyze_batch.
//
//   bench_batch [--smoke] [--repeat-mix] [--method NAME] [--graphs N] [json-path]
//
// --smoke shrinks the sweep for CI; --repeat-mix runs ONLY the
// duplicate-traffic section; --method picks the engine by name
// (method_from_name: kiter | periodic | symbolic | expansion). Results go
// to stdout and to BENCH_batch.json (scripts/bench_check.sh gates the
// parallel efficiency and the duplicate-heavy cache win,
// machine-relatively).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "gen/random_csdf.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace kp;

struct CaseResult {
  int threads = 0;   // requested pool size
  int workers = 0;   // worker count the service actually resolved
  double total_ms = 0;
  double graphs_per_sec = 0;
  double speedup_vs_1 = 0;
  // Serving-path counters for the case's service (cumulative over the
  // warm-up and the timed repeats).
  u64 steals = 0;
  u64 shard_depth_high_water = 0;  // max over shards
  double queue_p50_ms = 0;
  double queue_p99_ms = 0;
  double solve_p50_ms = 0;
  double solve_p99_ms = 0;
};

struct MixResult {
  double dup_rate = 0;
  int requests = 0;
  double hit_rate_cold = 0;      // first pass on a fresh cache
  double hit_rate_resubmit = 0;  // second pass, fully warm
  double off_graphs_per_sec = 0;
  double cold_graphs_per_sec = 0;
  double resubmit_graphs_per_sec = 0;
  double speedup_cold_vs_off = 0;
  double speedup_resubmit_vs_off = 0;
};

std::string fmt(double v, const char* spec = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// The generator suite: random live CSDFGs sized so one analysis is
/// comfortably sub-millisecond-to-milliseconds — the regime where batch
/// overhead and workspace reuse, not one giant solve, dominate.
std::vector<AnalysisRequest> make_requests(int count, Method method) {
  Rng rng(424242);
  RandomCsdfOptions gen;
  gen.min_tasks = 3;
  gen.max_tasks = 9;
  gen.max_phases = 3;
  gen.max_q = 6;
  std::vector<AnalysisRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    AnalysisRequest req;
    req.graph = random_csdf(rng, gen);
    req.method = method;
    requests.push_back(std::move(req));
  }
  return requests;
}

/// The determinism fingerprint of one batch: everything except timing and
/// worker metadata.
std::vector<std::string> fingerprint(const std::vector<Analysis>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const Analysis& a : results) {
    out.push_back(std::to_string(static_cast<int>(a.outcome)) + "|" + a.period.to_string() +
                  "|" + a.throughput.to_string() + "|" + a.detail);
  }
  return out;
}

/// Duplicate-heavy serving traffic: every unique graph appears at least
/// once, the remaining slots re-draw from the pool, and the order is
/// shuffled — deterministically — so duplicates are scattered, not
/// clustered. dup_rate = fraction of requests that repeat earlier content.
std::vector<AnalysisRequest> make_mix_requests(const std::vector<CsdfGraph>& pool,
                                               double dup_rate, Method method, Rng& rng) {
  const int unique = static_cast<int>(pool.size());
  const int total = static_cast<int>(unique / (1.0 - dup_rate) + 0.5);
  std::vector<int> slots;
  slots.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < unique; ++i) slots.push_back(i);
  for (int i = unique; i < total; ++i) {
    slots.push_back(static_cast<int>(rng.uniform(0, unique - 1)));
  }
  rng.shuffle(slots);
  std::vector<AnalysisRequest> requests;
  requests.reserve(slots.size());
  for (const int s : slots) {
    AnalysisRequest req;
    req.graph = pool[static_cast<std::size_t>(s)];
    req.method = method;
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Meatier graphs for the repeat-mix: the cache win is (solve time) /
/// (lookup time), so the section uses graphs whose solves dwarf a striped
/// lookup — serving-realistic, and it keeps the measured speedup about the
/// cache rather than about fixed batch overhead.
std::vector<CsdfGraph> make_mix_pool(int unique) {
  Rng rng(8181);
  RandomCsdfOptions gen;
  gen.min_tasks = 5;
  gen.max_tasks = 10;
  gen.max_phases = 3;
  gen.max_q = 8;
  std::vector<CsdfGraph> pool;
  pool.reserve(static_cast<std::size_t>(unique));
  for (int i = 0; i < unique; ++i) pool.push_back(random_csdf(rng, gen));
  return pool;
}

/// Median of a non-empty sample (the mean of the middle two when even).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool mix_only = false;
  Method method = Method::KIter;
  int graphs = 240;
  std::string json_path = "BENCH_batch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--repeat-mix") {
      mix_only = true;
    } else if (arg == "--method" && i + 1 < argc) {
      const auto parsed = method_from_name(argv[++i]);
      if (!parsed) {
        std::cerr << "unknown method '" << argv[i] << "' (kiter|periodic|symbolic|expansion)\n";
        return 2;
      }
      method = *parsed;
    } else if (arg == "--graphs" && i + 1 < argc) {
      graphs = std::max(1, std::atoi(argv[++i]));
    } else {
      json_path = arg;
    }
  }
  if (smoke) graphs = std::min(graphs, 60);
  const int repeats = smoke ? 2 : 3;
  const int mix_samples = smoke ? 5 : 9;  // interleaved repeat-mix rounds per case

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<int> thread_counts{1, 2, 4, 8};

  std::vector<CaseResult> results;
  bool deterministic = true;
  bool cache_identical = true;

  if (!mix_only) {
    std::cout << "Batch throughput — " << graphs << " random CSDFGs, method "
              << method_name(method) << ", " << hw << " hardware thread(s)\n\n";

    const std::vector<AnalysisRequest> requests = make_requests(graphs, method);
    std::vector<std::string> reference;  // fingerprint of the 1-thread run

    // Thread sweep with the result cache OFF: a repeat of the same batch
    // must re-solve, or the sweep would be measuring cache lookups.
    Table table({"threads", "total (ms)", "graphs/sec", "speedup vs 1", "steals", "depth hw",
                 "queue p99", "solve p99", "identical"});
    for (const int threads : thread_counts) {
      ThroughputService service(
          ServiceOptions{.threads = threads, .result_cache_capacity = 0});
      // Warm every worker's workspace once, then time best-of-N.
      std::vector<Analysis> batch = service.analyze_batch(requests);
      double best_ms = 1e300;
      for (int r = 0; r < repeats; ++r) {
        Stopwatch clock;
        batch = service.analyze_batch(requests);
        best_ms = std::min(best_ms, clock.elapsed_ms());
      }

      const std::vector<std::string> fp = fingerprint(batch);
      if (reference.empty()) reference = fp;
      const bool same = fp == reference;
      deterministic = deterministic && same;

      const ServiceStats stats = service.stats();
      CaseResult cr;
      cr.threads = threads;
      cr.workers = service.worker_count();
      cr.total_ms = best_ms;
      cr.graphs_per_sec = graphs / (best_ms / 1000.0);
      cr.speedup_vs_1 = results.empty() ? 1.0 : cr.graphs_per_sec / results[0].graphs_per_sec;
      cr.steals = stats.steals;
      for (const u64 d : stats.shard_depth_high_water) {
        cr.shard_depth_high_water = std::max(cr.shard_depth_high_water, d);
      }
      cr.queue_p50_ms = stats.queue.percentile_ms(0.50);
      cr.queue_p99_ms = stats.queue.percentile_ms(0.99);
      cr.solve_p50_ms = stats.solve.percentile_ms(0.50);
      cr.solve_p99_ms = stats.solve.percentile_ms(0.99);
      table.row({std::to_string(threads), fmt(cr.total_ms), fmt(cr.graphs_per_sec, "%.0f"),
                 fmt(cr.speedup_vs_1) + "x", std::to_string(cr.steals),
                 std::to_string(cr.shard_depth_high_water), fmt(cr.queue_p99_ms, "%.3f"),
                 fmt(cr.solve_p99_ms, "%.3f"), same ? "yes" : "NO"});
      results.push_back(cr);
    }
    table.print(std::cout);

    // Cache on/off identity: the acceptance check that a served-from-cache
    // batch is bit-identical to solving everything. Run the batch twice on
    // a cache-ON service — the first pass mixes misses with any in-batch
    // twins the dedupe replays, the second is all dispatch hits — and both
    // must match the cache-OFF reference fingerprint.
    {
      ThroughputService service(ServiceOptions{.threads = static_cast<int>(hw)});
      const std::vector<std::string> cold = fingerprint(service.analyze_batch(requests));
      const std::vector<std::string> warm = fingerprint(service.analyze_batch(requests));
      cache_identical = cold == reference && warm == reference;
      std::cout << "\ncache on/off identical: " << (cache_identical ? "yes" : "NO")
                << " (hit rate " << fmt(service.stats().hit_rate() * 100.0, "%.1f")
                << "% over both passes)\n";
    }
  }

  // ---- repeat-mix: duplicate-heavy serving traffic --------------------------

  const int unique = smoke ? 48 : 240;
  std::vector<MixResult> mix_results;
  {
    std::cout << "\nRepeat-mix — " << unique
              << " unique graphs, duplicate-heavy resubmission on 1 worker\n\n";
    const std::vector<CsdfGraph> pool = make_mix_pool(unique);
    Rng mix_rng(515151);
    Table table({"dup rate", "requests", "off g/s", "cold g/s", "resub g/s", "cold speedup",
                 "resub speedup", "hit% cold", "hit% resub"});
    for (const double dup_rate : {0.5, 0.9}) {
      const std::vector<AnalysisRequest> requests =
          make_mix_requests(pool, dup_rate, method, mix_rng);
      const auto n = static_cast<double>(requests.size());

      // Three services on one worker each. Cache OFF, warm workspaces: the
      // honest baseline — every request solves, exactly what the service
      // did before the result cache. Cache ON, cold: a fresh service per
      // sample — the in-batch dedupe replays every duplicate from its first
      // copy without queueing it, uniques still solve (cold workspaces AND
      // cold cache, deliberately pessimistic for the cache). Cache ON,
      // resubmit: the same traffic again on one warm service — the steady
      // serving state, every request a dispatch hit.
      ThroughputService off(ServiceOptions{.threads = 1, .result_cache_capacity = 0});
      std::vector<Analysis> off_batch = off.analyze_batch(requests);  // warm-up
      ThroughputService warm(ServiceOptions{.threads = 1});
      std::vector<Analysis> cold_batch = warm.analyze_batch(requests);  // fills the cache
      const double hit_rate_cold = warm.stats().hit_rate();
      std::vector<Analysis> resub_batch;

      // Interleaved samples: each round times one pass of every kind back
      // to back, so a host slowdown lands on both sides of a round's
      // ratios; the reported ratios are the medians of the per-round ones.
      const ServiceStats before = warm.stats();
      std::vector<double> off_ms;
      std::vector<double> cold_ms;
      std::vector<double> resub_ms;
      std::vector<double> cold_ratio;
      std::vector<double> resub_ratio;
      for (int r = 0; r < mix_samples; ++r) {
        Stopwatch off_clock;
        off_batch = off.analyze_batch(requests);
        off_ms.push_back(off_clock.elapsed_ms());
        {
          ThroughputService cold(ServiceOptions{.threads = 1});
          Stopwatch cold_clock;
          cold_batch = cold.analyze_batch(requests);
          cold_ms.push_back(cold_clock.elapsed_ms());
        }
        Stopwatch resub_clock;
        resub_batch = warm.analyze_batch(requests);
        resub_ms.push_back(resub_clock.elapsed_ms());
        cold_ratio.push_back(off_ms.back() / cold_ms.back());
        resub_ratio.push_back(off_ms.back() / resub_ms.back());
      }
      const ServiceStats after = warm.stats();
      const u64 resub_lookups = (after.cache_hits - before.cache_hits) +
                                (after.cache_misses - before.cache_misses);
      const double hit_rate_resub =
          resub_lookups == 0
              ? 0.0
              : static_cast<double>(after.cache_hits - before.cache_hits) /
                    static_cast<double>(resub_lookups);

      // Bit-identity across cache settings, on duplicate-heavy traffic too.
      const std::vector<std::string> fp_off = fingerprint(off_batch);
      cache_identical = cache_identical && fingerprint(cold_batch) == fp_off &&
                        fingerprint(resub_batch) == fp_off;

      MixResult mr;
      mr.dup_rate = dup_rate;
      mr.requests = static_cast<int>(requests.size());
      mr.hit_rate_cold = hit_rate_cold;
      mr.hit_rate_resubmit = hit_rate_resub;
      mr.off_graphs_per_sec = n / (median(off_ms) / 1000.0);
      mr.cold_graphs_per_sec = n / (median(cold_ms) / 1000.0);
      mr.resubmit_graphs_per_sec = n / (median(resub_ms) / 1000.0);
      mr.speedup_cold_vs_off = median(cold_ratio);
      mr.speedup_resubmit_vs_off = median(resub_ratio);
      table.row({fmt(dup_rate * 100.0, "%.0f") + "%", std::to_string(mr.requests),
                 fmt(mr.off_graphs_per_sec, "%.0f"), fmt(mr.cold_graphs_per_sec, "%.0f"),
                 fmt(mr.resubmit_graphs_per_sec, "%.0f"), fmt(mr.speedup_cold_vs_off) + "x",
                 fmt(mr.speedup_resubmit_vs_off) + "x", fmt(mr.hit_rate_cold * 100.0, "%.1f"),
                 fmt(mr.hit_rate_resubmit * 100.0, "%.1f")});
      mix_results.push_back(mr);
    }
    table.print(std::cout);
  }

  std::ofstream json(json_path);
  json << "{\n  \"schema\": 3,\n  \"sweep\": \"random-csdf\",\n  \"graphs\": " << graphs
       << ",\n  \"method\": \"" << method_name(method) << "\",\n  \"hardware_cores\": " << hw
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"cache_identical\": " << (cache_identical ? "true" : "false")
       << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& cr = results[i];
    json << "    {\"threads\": " << cr.threads << ", \"workers\": " << cr.workers
         << ", \"total_ms\": " << cr.total_ms << ", \"graphs_per_sec\": " << cr.graphs_per_sec
         << ", \"speedup_vs_1\": " << cr.speedup_vs_1 << ", \"steals\": " << cr.steals
         << ", \"shard_depth_high_water\": " << cr.shard_depth_high_water
         << ", \"queue_p50_ms\": " << cr.queue_p50_ms << ", \"queue_p99_ms\": " << cr.queue_p99_ms
         << ", \"solve_p50_ms\": " << cr.solve_p50_ms << ", \"solve_p99_ms\": " << cr.solve_p99_ms
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"repeat_mix\": {\n    \"unique_graphs\": " << unique
       << ",\n    \"cases\": [\n";
  for (std::size_t i = 0; i < mix_results.size(); ++i) {
    const MixResult& mr = mix_results[i];
    json << "      {\"dup_rate\": " << mr.dup_rate << ", \"requests\": " << mr.requests
         << ", \"hit_rate_cold\": " << mr.hit_rate_cold
         << ", \"hit_rate_resubmit\": " << mr.hit_rate_resubmit
         << ", \"off_graphs_per_sec\": " << mr.off_graphs_per_sec
         << ", \"cold_graphs_per_sec\": " << mr.cold_graphs_per_sec
         << ", \"resubmit_graphs_per_sec\": " << mr.resubmit_graphs_per_sec
         << ", \"speedup_cold_vs_off\": " << mr.speedup_cold_vs_off
         << ", \"speedup_resubmit_vs_off\": " << mr.speedup_resubmit_vs_off << "}"
         << (i + 1 < mix_results.size() ? "," : "") << "\n";
  }
  json << "    ]\n  }\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  if (!deterministic) {
    std::cerr << "FAIL: analyze_batch results differ across thread counts\n";
    return 1;
  }
  if (!cache_identical) {
    std::cerr << "FAIL: cache-served results differ from cold solves\n";
    return 1;
  }
  return 0;
}
