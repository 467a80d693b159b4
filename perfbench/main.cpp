// kpbench — end-to-end benchmark of kp::ThroughputService.
//
//   kpbench run --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   kpbench selftest
//
// A run builds the workload's inputs and reference verdicts before any clock
// starts. The S seconds it measures are split into kSetupRepeats segments. Each
// segment sets up a fresh service (construction plus the workload's fixed
// warm-up) and serves windows of whole passes on it for S / kSetupRepeats
// seconds, with the client thread kept on one core, the cores taken in
// turn. setup_s is the median set-up; lat_p50_ms, lat_tail_ms and req_per_s
// are each their best value over the windows. Load on a shared host slows
// one core's calls by up to 1.6x for seconds at a time; spreading the
// set-ups over cores and time and reading the best window keeps those
// bursts out of the figures, while a change to the program moves every
// window.
//
// With --trace 1 the run spends half of S as above and half traced: after
// every traced call the workload replays the service's layer functions
// under a span, and the run reports per-layer metrics.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using kpbench::CallResult;
using kpbench::Layer;
using kpbench::now_ns;
using kpbench::Tracer;
using kpbench::Workload;
using kp::i64;

/// Segments per run, each with its own set-up (two or more per core on the
/// 4-core machine the bounds were set on).
constexpr int kSetupRepeats = 9;

/// Call latencies a run keeps. The buffer is allocated and written before
/// the inputs are built, so it adds the same resident memory to every run
/// whatever its call count; a run ends early rather than overflow it.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;

/// Span store of the traced phase (about 8 MB in memory, 10 MB written).
constexpr std::size_t kMaxSpans = 1u << 18;

// ---- percentiles --------------------------------------------------------------

/// The tail ladder: p50, p90, p99, p99.9, ...
constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999};

/// 1-based nearest rank of quantile q among n samples. The epsilon keeps
/// q * n from rounding up past an exact integer (0.99 * 1000 is 990.0000001).
i64 rank_of(i64 n, double q) {
  return std::max<i64>(1, static_cast<i64>(std::ceil(q * static_cast<double>(n) - 1e-9)));
}

/// The highest ladder quantile that leaves at least ten samples beyond it
/// among n samples, capped at `cap`; p50 when none does.
double tail_quantile(i64 n, double cap) {
  double best = 0.5;
  for (const double q : kLadder) {
    if (q <= cap + 1e-12 && n - rank_of(n, q) >= 10) best = q;
  }
  return best;
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for no samples.
template <typename T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(rank_of(static_cast<i64>(v.size()), q) - 1)];
}

double median_of(std::vector<double> v) { return quantile(v, 0.5); }

/// VmHWM of this process image. getrusage's ru_maxrss would also count the
/// parent's resident set at the moment it forked this process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, i64 attempted, i64 failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- one run ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

struct Tally {
  i64 attempted = 0;
  i64 failed = 0;
  void add(const CallResult& r) {
    attempted += r.analyses;
    failed += r.failed;
  }
};

/// Calls in whole passes from `next` until `seconds` have passed (or `stop`
/// says so after a pass), handing every call to `on_call`.
template <typename OnCall, typename Stop>
void serve_passes(Workload& w, kp::ThroughputService& service, i64& next, double seconds,
                  OnCall&& on_call, Stop&& stop) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    for (i64 j = 0; j < w.pass_calls(); ++j) {
      const i64 index = next++;
      on_call(index, w.call(service, index));
    }
  } while (now_ns() < deadline && !stop());
}

/// A stretch of the timed phase: window_passes() whole passes.
struct Window {
  std::size_t begin = 0;  ///< its first latency sample
  std::size_t end = 0;
  i64 analyses = 0;
  std::int64_t busy_ns = 0;  ///< summed call time
};

/// The cores this process may run on. The client thread moves to another
/// one every segment, so a core whose host neighbour is busy slows only some
/// windows of a run.
class Cores {
 public:
  Cores() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) list_.push_back(c);
    }
  }

  /// Lets the calling thread run anywhere again (threads it starts inherit this).
  void release() const {
    if (!list_.empty()) (void)sched_setaffinity(0, sizeof(all_), &all_);
  }

  /// Keeps the calling thread on core `i` modulo the core count.
  void pin(std::size_t i) const {
    if (list_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(list_[i % list_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> list_;
};

int run(const Options& o) {
  std::vector<std::uint32_t> lat_ns(kMaxSamples, 1);
  // serving_dup's pool leaves one core to the client.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const auto workers = static_cast<int>(std::max(1u, cores - 1));
  const std::unique_ptr<Workload> w = kpbench::make_workload(o.workload, o.seed, workers);
  Tally tally;

  // Segments: a set-up on a fresh service, then windows on it. The set-up
  // runs unpinned, so that a worker pool it starts may use every core.
  const auto window_calls = static_cast<std::size_t>(w->window_passes() * w->pass_calls());
  const double untraced_seconds = o.trace ? o.seconds / 2 : o.seconds;
  const Cores client_cores;
  std::unique_ptr<kp::ThroughputService> service;
  std::vector<double> setup_s;
  std::vector<Window> windows;
  std::size_t samples = 0;
  i64 next = w->warmup_calls();
  for (int segment = 0; segment < kSetupRepeats; ++segment) {
    client_cores.release();
    service.reset();
    const std::int64_t start = now_ns();
    service = w->make_service();
    for (i64 i = 0; i < w->warmup_calls(); ++i) tally.add(w->call(*service, i));
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);

    client_cores.pin(static_cast<std::size_t>(segment));
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(untraced_seconds / kSetupRepeats * 1e9);
    do {
      if (samples + window_calls > lat_ns.size()) break;
      Window win;
      win.begin = samples;
      for (std::size_t j = 0; j < window_calls; ++j) {
        const CallResult r = w->call(*service, next++);
        tally.add(r);
        lat_ns[samples++] = static_cast<std::uint32_t>(std::min<std::int64_t>(r.ns, UINT32_MAX));
        win.analyses += r.analyses;
        win.busy_ns += r.ns;
      }
      win.end = samples;
      windows.push_back(win);
    } while (now_ns() < deadline);
  }
  client_cores.release();
  lat_ns.resize(samples);

  // Every window holds window_calls samples, so the tail percentile is the
  // same in every run of the workload.
  const double tail_q = tail_quantile(static_cast<i64>(window_calls), w->tail_cap());
  std::vector<std::uint32_t> sorted;
  auto window_q_ms = [&](const Window& win, double q) {
    sorted.assign(lat_ns.begin() + static_cast<std::ptrdiff_t>(win.begin),
                  lat_ns.begin() + static_cast<std::ptrdiff_t>(win.end));
    return static_cast<double>(quantile(sorted, q)) / 1e6;
  };
  // Each timing metric is its best value over the windows.
  std::vector<double> window_p50_ms;
  std::vector<double> window_tail_ms;
  double best_rate = 0.0;
  for (const Window& win : windows) {
    window_p50_ms.push_back(window_q_ms(win, 0.5));
    window_tail_ms.push_back(window_q_ms(win, tail_q));
    best_rate = std::max(best_rate, static_cast<double>(win.analyses) /
                                        (static_cast<double>(win.busy_ns) / 1e9));
  }
  const double best_p50_ms = *std::min_element(window_p50_ms.begin(), window_p50_ms.end());
  const double best_tail_ms = *std::min_element(window_tail_ms.begin(), window_tail_ms.end());
  // Whole-run figures, for stderr and the tracing overhead (sorts lat_ns).
  const double run_p50_ms = static_cast<double>(quantile(lat_ns, 0.5)) / 1e6;
  const double run_tail_ms = static_cast<double>(quantile(lat_ns, tail_q)) / 1e6;

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"setup_s", median_of(setup_s), "s"},
        {"req_per_s", best_rate, "1/s"},
        {"lat_p50_ms", best_p50_ms, "ms"},
        {"lat_tail_ms", best_tail_ms, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::fprintf(stderr,
                 "%s seed=%llu calls=%zu workers=%d windows=%zu of %zu calls, tail=p%g | "
                 "window p50 ms: min %.4f median %.4f max %.4f | window p%g ms: min %.4f "
                 "median %.4f | whole run ms: p50 %.4f p%g %.4f | set-ups s:",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed), samples,
                 service->worker_count(), windows.size(), window_calls, tail_q * 100.0,
                 best_p50_ms, median_of(window_p50_ms),
                 *std::max_element(window_p50_ms.begin(), window_p50_ms.end()), tail_q * 100.0,
                 best_tail_ms, median_of(window_tail_ms), run_p50_ms, tail_q * 100.0,
                 run_tail_ms);
    for (const double s : setup_s) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");
  } else {
    // Traced phase: every call is followed by its replay.
    Tracer tracer(kMaxSpans);
    const kp::ServiceStats before = service->stats();
    const kp::ConstraintGraphCache& cg = w->replay_workspace().cache;
    const i64 patched0 = cg.patched_rounds + cg.payload_rounds;
    const i64 rebuilt0 = cg.rebuilt_rounds;
    std::vector<double> queue_ms;
    i64 traced_analyses = 0;
    i64 new_contents = 0;
    i64 ray_variants = 0;
    i64 region_fills = 0;
    serve_passes(
        *w, *service, next, o.seconds / 2,
        [&](i64 index, const CallResult& r) {
          tally.add(r);
          traced_analyses += r.analyses;
          new_contents += r.new_contents;
          ray_variants += r.ray_variants;
          region_fills += r.region_fills;
          for (const kp::Analysis& a : w->last_results()) queue_ms.push_back(a.queue_ms);
          const std::int32_t root = tracer.root(index, r.start_ns, r.start_ns + r.ns);
          w->replay(index, tracer, root);
        },
        [&] { return tracer.full(); });
    const kp::ServiceStats after = service->stats();
    const i64 patched = cg.patched_rounds + cg.payload_rounds - patched0;
    const i64 rounds_built = patched + cg.rebuilt_rounds - rebuilt0;
    const std::uint64_t hits = after.cache_hits - before.cache_hits;
    const std::uint64_t lookups = hits + after.cache_misses - before.cache_misses;
    const double runs = static_cast<double>(std::max<std::int64_t>(tracer.kiter_runs, 1));
    const double kiter_us = tracer.mean_us(Layer::Kiter);
    const double build_us = tracer.build_ms * 1e3 / runs;
    const double solve_us = tracer.solve_ms * 1e3 / runs;
    std::vector<double> traced_call_us = tracer.call_us();
    auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
    metrics = {
        {"api.self_us", tracer.mean_self_us(), "us"},
        {"api.queue_p50_ms", quantile(queue_ms, 0.5), "ms"},
        {"api.queue_p99_ms", quantile(queue_ms, 0.99), "ms"},
        {"api.steals_per_kreq",
         ratio(static_cast<double>(after.steals - before.steals) * 1e3,
               static_cast<double>(traced_analyses)),
         "1/kreq"},
        {"api.solves_per_unique",
         ratio(static_cast<double>(after.jobs_executed - before.jobs_executed),
               static_cast<double>(new_contents)),
         "ratio"},
        {"api.hit_rate", ratio(static_cast<double>(hits), static_cast<double>(lookups)), "ratio"},
        {"core.key_us", tracer.mean_us(Layer::Key), "us"},
        {"util.cache_find_us", tracer.mean_us(Layer::CacheFind), "us"},
        {"util.cache_insert_us", tracer.mean_us(Layer::CacheInsert), "us"},
        {"model.serialize_us", tracer.mean_us(Layer::Serialize), "us"},
        {"model.repetition_us", tracer.mean_us(Layer::Repetition), "us"},
        {"model.delta_us", tracer.mean_us(Layer::Delta), "us"},
        {"core.kiter_us", kiter_us, "us"},
        {"core.build_us", build_us, "us"},
        {"core.round_overhead_us", tracer.kiter_runs == 0 ? 0.0 : kiter_us - build_us - solve_us,
         "us"},
        {"core.rounds", static_cast<double>(tracer.rounds) / runs, "count"},
        {"core.patch_share", ratio(static_cast<double>(patched), static_cast<double>(rounds_built)),
         "ratio"},
        {"core.cert_us", tracer.mean_us(Layer::Cert), "us"},
        {"core.region_fill_share",
         ratio(static_cast<double>(region_fills), static_cast<double>(ray_variants)), "ratio"},
        {"core.certify_us", tracer.mean_us(Layer::Certify), "us"},
        {"mcrp.solve_us", solve_us, "us"},
        {"mcrp.howard_iters", static_cast<double>(tracer.howard_iterations) / runs, "count"},
        {"mcrp.exact_iters", static_cast<double>(tracer.exact_iterations) / runs, "count"},
        {"trace.overhead_us", quantile(traced_call_us, 0.5) - run_p50_ms * 1e3, "us"},
    };

    // Where a call's time goes: each layer's total per traced call.
    const auto calls = static_cast<double>(tracer.totals(Layer::ApiCall).count);
    const double call_mean_us = tracer.mean_us(Layer::ApiCall);
    std::fprintf(stderr, "%s traced calls=%.0f mean call=%.2f us (untraced p50 %.2f us)\n",
                 o.workload.c_str(), calls, call_mean_us, run_p50_ms * 1e3);
    for (int l = 1; l < static_cast<int>(Layer::Count); ++l) {
      const auto layer = static_cast<Layer>(l);
      const double per_call = static_cast<double>(tracer.totals(layer).total_ns) / 1e3 / calls;
      std::fprintf(stderr, "  %-18s %10.2f us/call %6.1f%%\n", kpbench::layer_name(layer),
                   per_call, 100.0 * per_call / call_mean_us);
    }
    std::fprintf(stderr, "  %-18s %10.2f us/call %6.1f%%\n", "api.self", tracer.mean_self_us(),
                 100.0 * tracer.mean_self_us() / call_mean_us);
    for (const auto& [name, ms] : {std::pair{"core.build", tracer.build_ms},
                                   std::pair{"mcrp.solve", tracer.solve_ms}}) {
      std::fprintf(stderr, "  %-18s %10.2f us/call %6.1f%% (inside core.kiter)\n", name,
                   ms * 1e3 / calls, 100.0 * ms * 1e3 / calls / call_mean_us);
    }
    if (!o.spans_path.empty()) tracer.write(o.spans_path);
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

// ---- self-tests ------------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };

  // The tail helper picks the highest percentile with >= 10 samples beyond it.
  check(tail_quantile(20, 1.0) == 0.5 && tail_quantile(99, 1.0) == 0.5 &&
            tail_quantile(100, 1.0) == 0.9 && tail_quantile(999, 1.0) == 0.9 &&
            tail_quantile(1000, 1.0) == 0.99 && tail_quantile(10000, 1.0) == 0.999 &&
            tail_quantile(100000, 0.999) == 0.999,
        "tail helper: highest ladder percentile with >= 10 samples beyond it");
  {
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i) v.push_back(i);
    check(quantile(v, 0.99) == 990.0 && quantile(v, 0.5) == 500.0,
          "nearest-rank quantile of 1..1000: p99 = 990 (ten samples beyond), p50 = 500");
  }

  // A deliberately wrong reference makes the run report a failed request.
  {
    const auto w = kpbench::make_workload("serving_unique", 1, 1);
    w->corrupt_one_reference();
    const auto service = w->make_service();
    i64 failed = 0;
    for (i64 i = 0; i < w->pass_calls(); ++i) failed += w->call(*service, i).failed;
    check(failed == 1, "a corrupted reference fails exactly its one request (failed=" +
                           std::to_string(failed) + ")");
  }

  // serving_unique never repeats a content key within a run.
  {
    const auto w = kpbench::make_workload("serving_unique", 1, 1);
    const i64 n = w->warmup_calls() + 16 * w->pass_calls();
    std::set<std::vector<i64>> keys;
    for (i64 i = 0; i < n; ++i) keys.insert(kpbench::serving_unique_key(*w, i).words);
    check(static_cast<i64>(keys.size()) == n,
          "serving_unique: " + std::to_string(n) + " calls, " + std::to_string(keys.size()) +
              " distinct content keys");
    const auto service = w->make_service();
    for (i64 i = 0; i < w->warmup_calls() + 2 * w->pass_calls(); ++i) (void)w->call(*service, i);
    check(service->stats().cache_hits == 0, "serving_unique: the service saw no cache hit");
  }

  // At one worker, serving_dup's hit rate equals its constructed duplicate share.
  {
    const auto w = kpbench::make_workload("serving_dup", 1, 1);
    const auto service = w->make_service();
    i64 new_contents = 0;
    for (i64 i = 0; i < w->warmup_calls() + w->pass_calls(); ++i) {
      new_contents += w->call(*service, i).new_contents;
    }
    const kp::ServiceStats s = service->stats();
    check(s.hit_rate() == kpbench::serving_dup_share(),
          "serving_dup at one worker: hit rate " + std::to_string(s.hit_rate()) +
              " = duplicate share " + std::to_string(kpbench::serving_dup_share()));
    check(static_cast<i64>(s.jobs_executed) == new_contents,
          "serving_dup at one worker: one solve per distinct content");
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "selftest") return selftest();
  if (argc < 2 || std::string(argv[1]) != "run") {
    std::fprintf(stderr, "usage: kpbench run --workload NAME --seed N --seconds S --trace 0|1 "
                         "[--spans PATH]\n       kpbench selftest\n");
    return 2;
  }
  Options o;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else if (key == "--spans") {
        o.spans_path = value;
      } else {
        std::fprintf(stderr, "unknown option %s\n", key.c_str());
        return 2;
      }
    }
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kpbench: %s\n", e.what());
    return 1;
  }
}
