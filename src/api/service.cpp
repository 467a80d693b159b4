#include "api/service.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/constraints.hpp"
#include "core/kperiodic.hpp"
#include "core/regions.hpp"
#include "model/transform.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace kp {

namespace {

/// Appends the compact rendering of K to `out`: "K=1" for all-ones, else
/// the non-1 entries, cut with ",..." once the K part alone passes 60 bytes.
void append_k(std::string& out, const std::vector<i64>& k) {
  std::size_t ones = 0;
  for (const i64 v : k) ones += (v == 1);
  if (ones == k.size()) {
    out += "K=1";
    return;
  }
  const std::size_t start = out.size();
  out += "K={";
  bool first = true;
  for (std::size_t i = 0; i < k.size(); ++i) {
    if (k[i] == 1) continue;
    if (!first) out += ',';
    out += 't';
    out += std::to_string(i);
    out += ':';
    out += std::to_string(k[i]);
    first = false;
    if (out.size() - start > 60) {
      out += ",...";
      break;
    }
  }
  out += "} (";
  out += std::to_string(k.size() - ones);
  out += " tasks >1)";
}

/// min of two budgets where < 0 means "unlimited".
double tighten_budget(double budget_ms, double deadline_ms) {
  if (deadline_ms < 0) return budget_ms;
  if (budget_ms < 0) return deadline_ms;
  return std::min(budget_ms, deadline_ms);
}

/// True when the request's outcome is a pure function of its content: no
/// wall-clock budget anywhere (deadline, engine time budget), no
/// cancellation, no caller poll hook, no externally-supplied K seed, and no
/// MCRP warm start — a warm K-Iter solve seeds from whatever circuit the
/// worker's scratch solved last, so its critical circuit, final K and
/// `detail` depend on the worker's history. Structural budgets
/// (max_constraint_pairs, max_rounds, max_states, expansion caps) ARE
/// deterministic and stay cacheable — a Budget outcome under a structural
/// cap reproduces exactly, so memoizing it is sound.
bool cacheable_request(Method method, const AnalysisOptions& o, double deadline_ms,
                       const CancelToken& cancel) {
  if (deadline_ms >= 0.0 || cancel.cancellable()) return false;
  switch (method) {
    case Method::KIter:
      return o.kiter.poll == nullptr && o.kiter.time_budget_ms < 0 &&
             o.kiter.initial_k == nullptr && !o.kiter.mcrp.howard_warm_start;
    case Method::Periodic:
      return true;
    case Method::SymbolicExecution:
      return o.sim.poll == nullptr && o.sim.time_budget_ms < 0;
    case Method::Expansion:
      return true;
  }
  return false;
}

/// Every option that can influence a cacheable request's result, flattened
/// into key words. Options that only shape wall-clock behavior (poll
/// strides, time budgets) are excluded — cacheable_request already rejects
/// requests where they could matter — and so is the MCRP warm start, which
/// a cacheable K-Iter request never sets and a Periodic one never uses
/// (each solves on a fresh scratch).
void append_options_words(Method method, const AnalysisOptions& o, std::vector<i64>& w) {
  w.push_back(static_cast<i64>(method));
  w.push_back(o.serialize_tasks ? 1 : 0);
  const auto push_mcrp = [&w](const McrpOptions& m) {
    w.push_back(m.compute_potentials ? 1 : 0);
    w.push_back(m.max_iterations);
  };
  switch (method) {
    case Method::KIter:
      w.push_back(static_cast<i64>(o.kiter.policy));
      push_mcrp(o.kiter.mcrp);
      w.push_back(o.kiter.incremental ? 1 : 0);
      // i128 structural cap as two words.
      w.push_back(static_cast<i64>(o.kiter.max_constraint_pairs >> 64));
      w.push_back(static_cast<i64>(static_cast<u64>(o.kiter.max_constraint_pairs)));
      w.push_back(o.kiter.max_rounds);
      w.push_back(o.kiter.record_trace ? 1 : 0);
      break;
    case Method::Periodic:
      push_mcrp(o.kiter.mcrp);
      break;
    case Method::SymbolicExecution:
      w.push_back(o.sim.max_states);
      w.push_back(o.sim.max_firings_per_instant);
      break;
    case Method::Expansion:
      w.push_back(o.expansion_max_nodes);
      w.push_back(o.expansion_max_arcs);
      break;
  }
}

/// The content-addressed identity of one request: option words + the exact
/// graph snapshot (core/constraints.hpp). The digest routes to a cache
/// stripe; equality is word-for-word.
void build_request_key(const CsdfGraph& g, Method method, const AnalysisOptions& o,
                       ContentKey& key) {
  key.words.clear();
  append_options_words(method, o, key.words);
  append_content_snapshot(g, key.words);
  key.finalize();
}

/// The caller's own poll hook (if any) chained behind the request's cancel
/// flag; lives on the stack for the duration of one engine run. `hook` is
/// the shared chaining predicate both K-Iter and the symbolic engine
/// install (flag first, then the inner hook).
struct PollChain {
  bool (*inner)(void*);
  void* inner_ctx;
  const std::atomic<bool>* flag;

  static bool hook(void* p) {
    const auto& c = *static_cast<const PollChain*>(p);
    if (c.flag->load(std::memory_order_relaxed)) return true;
    return c.inner != nullptr && c.inner(c.inner_ctx);
  }
};

/// K-Iter on g plus the `extra` buffers (the serialization self-loops, or
/// none), with `rv` the repetition vector of g.
Analysis run_kiter(const CsdfGraph& g, const RepetitionVector& rv, std::span<const Buffer> extra,
                   const AnalysisOptions& options, double deadline_ms, const CancelToken& cancel,
                   KIterWorkspace& ws, std::vector<i64>* warm_k = nullptr,
                   bool* warm_k_valid = nullptr) {
  Analysis a;
  KIterOptions kiter = options.kiter;
  kiter.time_budget_ms = tighten_budget(kiter.time_budget_ms, deadline_ms);
  // The service never surfaces the schedule (Analysis carries values only),
  // so the final potentials relaxation is skipped for every request — warm
  // and cold alike, keeping the two comparable.
  kiter.want_schedule = false;
  // Cross-variant warm start: seed from the previous Optimal variant's
  // final K. kiter copies the seed once at entry, so aliasing the sink
  // below is fine.
  if (warm_k != nullptr && *warm_k_valid) kiter.initial_k = warm_k;
  PollChain chain{options.kiter.poll, options.kiter.poll_ctx, cancel.flag()};
  if (chain.flag != nullptr) {
    kiter.poll = &PollChain::hook;
    kiter.poll_ctx = &chain;
  }

  KIterResult r = kiter_throughput(g, rv, kiter, ws, extra);
  a.detail = "rounds=";
  a.detail += std::to_string(r.rounds);
  a.detail += ' ';
  append_k(a.detail, r.k);
  a.rounds = r.rounds;
  a.mcrp_iterations = r.mcrp_iterations;
  a.build_ms = r.build_ms;
  a.solve_ms = r.solve_ms;
  switch (r.status) {
    case ThroughputStatus::Optimal:
      a.outcome = Outcome::Value;
      a.quality = Quality::Exact;
      a.period = r.period;
      a.throughput = r.throughput;
      // Why the value binds: the final round's critical cycle as a symbolic
      // ratio (empty for zero-period corners). The workspace still holds
      // the final K's constraint graph and solve here.
      a.critical_cycle = extract_critical_cycle_cert(ws.constraints, ws.solved);
      break;
    case ThroughputStatus::Deadlock:
      a.outcome = Outcome::Deadlock;
      break;
    case ThroughputStatus::Unbounded:
      a.outcome = Outcome::Unbounded;
      break;
    case ThroughputStatus::ResourceLimit:
      if (r.cancelled) {
        a.outcome = Outcome::Budget;
        a.detail += " (cancelled)";
      } else if (r.has_feasible_bound) {
        a.outcome = Outcome::Value;
        a.quality = Quality::AchievableBound;
        a.period = r.period;
        a.throughput = r.throughput;
        a.detail += " (budget hit; best feasible bound reported)";
      } else {
        a.outcome = Outcome::Budget;
      }
      break;
  }
  // Warm-state lifecycle: only a completed Optimal run leaves a seed worth
  // reusing. Any other exit — Deadlock, Unbounded, budget, cancellation —
  // is a hard warm-state boundary: drop the K seed AND force the next MCRP
  // solve cold (no reused core, no circuit seed).
  if (warm_k != nullptr) {
    if (r.status == ThroughputStatus::Optimal) {
      *warm_k = std::move(r.k);
      *warm_k_valid = true;
    } else {
      *warm_k_valid = false;
      ws.reset_solver_warm_start();
    }
  }
  return a;
}

Analysis run_periodic(const CsdfGraph& g, const AnalysisOptions& options) {
  Analysis a;
  const RepetitionVector rv = compute_repetition_vector(g);
  KEvalOptions eval;
  eval.mcrp = options.kiter.mcrp;
  eval.want_schedule = false;
  const KPeriodicResult r = periodic_schedule(g, rv, eval);
  a.mcrp_iterations = r.mcrp_iterations;
  switch (r.status) {
    case KEvalStatus::Feasible:
      a.outcome = Outcome::Value;
      a.quality = Quality::AchievableBound;  // optimal only within K = 1
      a.period = r.period;
      a.throughput = r.period.reciprocal();
      break;
    case KEvalStatus::InfeasibleK:
      a.outcome = Outcome::NoSolution;
      break;
    case KEvalStatus::Unbounded:
      a.outcome = Outcome::Unbounded;
      break;
    case KEvalStatus::Aborted:
      a.outcome = Outcome::Budget;
      break;
  }
  return a;
}

Analysis run_symbolic(const CsdfGraph& g, const AnalysisOptions& options, double deadline_ms,
                      const CancelToken& cancel) {
  Analysis a;
  const RepetitionVector rv = compute_repetition_vector(g);
  SimOptions sim = options.sim;
  sim.time_budget_ms = tighten_budget(sim.time_budget_ms, deadline_ms);
  // The request's cancel flag is polled once per explored state (chained in
  // front of any caller-supplied hook), so cancellation stops the
  // exploration itself instead of waiting out the state budget.
  PollChain chain{options.sim.poll, options.sim.poll_ctx, cancel.flag()};
  if (chain.flag != nullptr) {
    sim.poll = &PollChain::hook;
    sim.poll_ctx = &chain;
  }
  const SimResult r = symbolic_execution_throughput(g, rv, sim);
  a.detail = "states=" + std::to_string(r.states_explored);
  switch (r.status) {
    case SimStatus::Periodic:
      a.outcome = Outcome::Value;
      a.quality = Quality::Exact;
      a.period = r.period;
      a.throughput = r.throughput;
      a.detail += " transient=" + std::to_string(r.transient_time) +
                  " cycle=" + std::to_string(r.cycle_time);
      break;
    case SimStatus::Deadlock:
      a.outcome = Outcome::Deadlock;
      break;
    case SimStatus::Unbounded:
      a.outcome = Outcome::Unbounded;
      break;
    case SimStatus::Budget:
      a.outcome = Outcome::Budget;
      if (cancel.cancelled()) a.detail += " (cancelled)";
      break;
  }
  return a;
}

Analysis run_expansion(const CsdfGraph& g, const AnalysisOptions& options) {
  Analysis a;
  const RepetitionVector rv = compute_repetition_vector(g);
  const ExpansionResult r =
      expansion_throughput(g, rv, options.expansion_max_nodes, options.expansion_max_arcs);
  a.detail = "hsdf_nodes=" + std::to_string(r.nodes) + " hsdf_arcs=" + std::to_string(r.arcs);
  switch (r.status) {
    case ThroughputStatus::Optimal:
      a.outcome = Outcome::Value;
      a.quality = Quality::Exact;
      a.period = r.period;
      a.throughput = r.throughput;
      break;
    case ThroughputStatus::Deadlock:
      a.outcome = Outcome::Deadlock;
      break;
    case ThroughputStatus::Unbounded:
      a.outcome = Outcome::Unbounded;
      break;
    case ThroughputStatus::ResourceLimit:
      a.outcome = Outcome::Budget;
      break;
  }
  return a;
}

/// The shell of every request: the cancellation check before any work,
/// then `run` (the method itself), the method stamp and the elapsed time.
/// `warm_k_valid` is the caller's warm-start flag, if any: cancellation is
/// a warm-state boundary like any other fallback.
template <typename Run>
Analysis timed_request(Method method, const CancelToken& cancel, KIterWorkspace& ws,
                       bool* warm_k_valid, Run&& run) {
  Stopwatch clock;
  Analysis a;
  if (cancel.cancelled()) {
    a.method = method;
    a.outcome = Outcome::Budget;
    a.detail = "cancelled before execution";
    a.elapsed_ms = clock.elapsed_ms();
    if (warm_k_valid != nullptr) {
      *warm_k_valid = false;
      ws.reset_solver_warm_start();
    }
    return a;
  }
  a = run();
  a.method = method;
  a.elapsed_ms = clock.elapsed_ms();
  return a;
}

/// One request on the graph as given, start to finish, on the given
/// workspace. This is the single execution path every plain request
/// funnels through — batch, async and inline analyses of the same request
/// are therefore identical. K-Iter never copies the graph: the
/// serialization self-loops go into `serial` (the worker's per-request
/// scratch) and on to the constraint generator as extra buffers, and q is
/// computed on the graph as given, since a unit self-loop changes neither
/// q nor the consistency verdict. The other methods analyze a serialized
/// copy.
Analysis execute_request(const CsdfGraph& graph, Method method, const AnalysisOptions& options,
                         double deadline_ms, const CancelToken& cancel, KIterWorkspace& ws,
                         std::vector<Buffer>& serial) {
  return timed_request(method, cancel, ws, nullptr, [&]() -> Analysis {
    if (method == Method::KIter) {
      if (options.serialize_tasks) {
        serialization_buffers_into(graph, serial);
      } else {
        serial.clear();
      }
      return run_kiter(graph, compute_repetition_vector(graph), serial, options, deadline_ms,
                       cancel, ws);
    }
    CsdfGraph serialized;
    if (options.serialize_tasks) serialized = add_serialization_buffers(graph);
    const CsdfGraph& prepared = options.serialize_tasks ? serialized : graph;
    switch (method) {
      case Method::Periodic:
        return run_periodic(prepared, options);
      case Method::SymbolicExecution:
        return run_symbolic(prepared, options, deadline_ms, cancel);
      case Method::Expansion:
        return run_expansion(prepared, options);
      case Method::KIter:
        break;
    }
    return Analysis{};
  });
}

}  // namespace

/// One variant batch in flight: the caller's batch, the base every worker
/// copies once (serialized for the non-K-Iter methods; K-Iter takes the
/// base as given and adds the self-loops in the generator), and the
/// generation stamp that keys worker-local variant scratch. Lives on the
/// analyze_variants stack for the whole blocking call.
struct ThroughputService::VariantRun {
  const VariantBatch* batch = nullptr;
  const CsdfGraph* prepared = nullptr;
  u64 gen = 0;
};

/// Completion rendezvous for one blocking batch dispatch, living on the
/// dispatcher's stack: workers decrement `remaining` as jobs finish and the
/// last one notifies. A per-batch countdown instead of the old global
/// job_done_ broadcast means a 10^5-job batch wakes its dispatcher once,
/// not 10^5 times. Every access to `remaining` holds `mu` — the dispatcher
/// may return (freeing this object) the moment it sees zero, so a worker's
/// last touch must be inside the critical section that makes it zero.
struct ThroughputService::BatchSync {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = 0;  // guarded by mu
};

/// One work-queue shard: an independently-locked deque. The owning worker
/// pops the BACK (LIFO — the freshest job's graph is the one most likely
/// still warm in cache); thieves take the FRONT (the oldest job).
/// depth_high_water is written under mu, read lock-free by stats().
struct ThroughputService::Shard {
  std::mutex mu;
  std::deque<std::shared_ptr<Job>> jobs;
  std::atomic<u64> depth_high_water{0};
};

/// One enqueued request. Batch jobs reference the caller's span (valid for
/// the whole blocking analyze_batch call); submitted jobs own theirs;
/// variant jobs name a (run, delta index) pair instead of carrying a graph.
struct ThroughputService::Job {
  const AnalysisRequest* request = nullptr;
  AnalysisRequest owned;
  const VariantRun* variant = nullptr;
  std::size_t variant_index = 0;
  i64 id = -1;
  Stopwatch queued;
  Analysis result;
  std::exception_ptr error;

  // Result-cache identity, computed once at submission time from the
  // request's exact content (so later mutation of a caller's graph can
  // never poison the cache).
  bool cacheable = false;
  ContentKey key;
  /// In-batch twin: index (within its dispatch) of the earlier job with the
  /// same key whose result this one replays; -1 = dispatched itself.
  std::ptrdiff_t twin_of = -1;

  // Completion plumbing: exactly one of these is used. Batch jobs count
  // down their dispatcher's BatchSync; ticketed (submit/wait) jobs flip
  // `done` under done_mu_. served_at_dispatch marks a cache hit that never
  // entered a queue.
  BatchSync* sync = nullptr;
  bool ticketed = false;
  bool served_at_dispatch = false;
  bool done = false;

  [[nodiscard]] const AnalysisRequest& req() const { return request ? *request : owned; }
  [[nodiscard]] Method method() const {
    return variant != nullptr ? variant->batch->method : req().method;
  }
};

ThroughputService::ThroughputService(ServiceOptions options)
    : cache_(options.result_cache_capacity) {
  int n = options.threads;
  if (n < 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : static_cast<int>(hw);
  }
  // One workspace per pool thread plus one for the calling thread (inline
  // mode and analyze()); index n is the caller's.
  workers_.reserve(static_cast<std::size_t>(n) + 1);
  for (int i = 0; i <= n; ++i) workers_.push_back(std::make_unique<Worker>());
  // Default: one shard per worker, so an uncontended pool never shares a
  // queue lock. More shards than workers is legal (served by stealing).
  const int m = options.queue_shards > 0 ? options.queue_shards : std::max(1, n);
  shards_.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) shards_.push_back(std::make_unique<Shard>());
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThroughputService::~ThroughputService() {
  {
    // state_mu_ closes the submit/dispatch race: nobody can check
    // stopping_ and then enqueue a waitable job after the drain below.
    std::lock_guard<std::mutex> lk(state_mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  std::vector<std::shared_ptr<Job>> orphans;
  for (const std::unique_ptr<Shard>& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    pending_.fetch_sub(static_cast<i64>(sp->jobs.size()), std::memory_order_relaxed);
    for (std::shared_ptr<Job>& job : sp->jobs) orphans.push_back(std::move(job));
    sp->jobs.clear();
  }
  wake_workers(true);
  for (std::thread& t : threads_) t.join();
  // Requests still queued at shutdown complete as Budget so pending wait()
  // calls (which must finish before destruction returns control to the
  // caller) observe a well-formed result.
  for (const std::shared_ptr<Job>& job : orphans) {
    job->result.method = job->method();
    job->result.outcome = Outcome::Budget;
    job->result.detail = "service shut down before execution";
    job->result.request_id = job->id;
    job->result.queue_ms = job->queued.elapsed_ms();
    complete_job(job);
  }
}

ServiceStats ThroughputService::stats() const {
  ServiceStats s;
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.cache_evictions = cache_.evictions();
  s.cache_size = cache_.size();
  s.cache_capacity = cache_.capacity();
  s.steals = steals_.load(std::memory_order_relaxed);
  s.jobs_executed = executed_.load(std::memory_order_relaxed);
  s.shard_depth_high_water.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& sp : shards_) {
    s.shard_depth_high_water.push_back(sp->depth_high_water.load(std::memory_order_relaxed));
  }
  s.queue = queue_hist_.snapshot();
  s.solve = solve_hist_.snapshot();
  return s;
}

void ThroughputService::enqueue(std::shared_ptr<Job> job, std::size_t shard) {
  Shard& s = *shards_[shard % shards_.size()];
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.jobs.push_back(std::move(job));
    const u64 depth = s.jobs.size();
    if (depth > s.depth_high_water.load(std::memory_order_relaxed)) {
      s.depth_high_water.store(depth, std::memory_order_relaxed);
    }
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
}

void ThroughputService::wake_workers(bool all) {
  // The empty critical section is load-bearing: a worker that observed
  // pending_ == 0 holds wake_mu_ from that check until its wait() parks it,
  // so locking here forces "increment pending_, THEN notify" to happen
  // either entirely before the worker's check (it sees the job, never
  // sleeps) or entirely after it parked (the notify lands). Without it the
  // notify could fire in the gap and be lost.
  { std::lock_guard<std::mutex> lk(wake_mu_); }
  if (all) {
    work_ready_.notify_all();
  } else {
    work_ready_.notify_one();
  }
}

std::shared_ptr<ThroughputService::Job> ThroughputService::take_job(std::size_t own_shard) {
  const std::size_t m = shards_.size();
  {
    Shard& s = *shards_[own_shard];
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.jobs.empty()) {
      std::shared_ptr<Job> job = std::move(s.jobs.back());  // LIFO: freshest first
      s.jobs.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return job;
    }
  }
  // Own shard dry: steal the OLDEST entry of another shard (FIFO keeps a
  // steal from fighting the owner over its freshest work).
  for (std::size_t i = 1; i < m; ++i) {
    Shard& s = *shards_[(own_shard + i) % m];
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.jobs.empty()) continue;
    std::shared_ptr<Job> job = std::move(s.jobs.front());
    s.jobs.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    return job;
  }
  return nullptr;
}

void ThroughputService::worker_loop(int worker_id) {
  const std::size_t own = static_cast<std::size_t>(worker_id) % shards_.size();
  for (;;) {
    std::shared_ptr<Job> job = take_job(own);
    if (job == nullptr) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      std::unique_lock<std::mutex> lk(wake_mu_);
      work_ready_.wait(lk, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               pending_.load(std::memory_order_relaxed) > 0;
      });
      continue;
    }
    run_job(*job, worker_id);
    complete_job(job);
  }
}

void ThroughputService::complete_job(const std::shared_ptr<Job>& job) {
  if (job->ticketed) {
    {
      std::lock_guard<std::mutex> lk(done_mu_);
      job->done = true;
    }
    job_done_.notify_all();
  }
  if (BatchSync* sync = job->sync) {
    // Decrement and notify under the lock (see BatchSync): once the count
    // reaches zero the dispatcher may free `sync` as soon as mu is free.
    std::lock_guard<std::mutex> lk(sync->mu);
    if (--sync->remaining == 0) sync->cv.notify_one();
  }
}

void ThroughputService::prepare_cache_key(Job& job) const {
  if (!cache_.enabled() || job.variant != nullptr) return;
  const AnalysisRequest& req = job.req();
  if (!cacheable_request(req.method, req.options, req.deadline_ms, req.cancel)) return;
  build_request_key(req.graph, req.method, req.options, job.key);
  job.cacheable = true;
}

bool ThroughputService::try_dispatch_hit(Job& job) {
  if (!job.cacheable) return false;
  std::optional<Analysis> hit = cache_.find(job.key);
  if (!hit) return false;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  job.result = std::move(*hit);
  job.result.request_id = job.id;
  job.result.queue_ms = 0.0;  // never queued; worker_id stays the solver's
  job.served_at_dispatch = true;
  return true;
}

void ThroughputService::run_job(Job& job, int worker_id) {
  const double queue_ms = job.queued.elapsed_ms();
  queue_hist_.record_ms(queue_ms);
  try {
    Worker& worker = *workers_[static_cast<std::size_t>(worker_id)];
    if (job.variant != nullptr) {
      job.result = run_variant(*job.variant, job.variant_index, worker);
      solve_hist_.record_ms(job.result.elapsed_ms);
      executed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      bool served = false;
      if (job.cacheable) {
        // Late hit: an identical request completed (or was already cached)
        // while this one sat in a queue — a submit() twin, or a copy from
        // a concurrent batch (in-batch twins never reach a queue).
        if (std::optional<Analysis> hit = cache_.find(job.key)) {
          cache_hits_.fetch_add(1, std::memory_order_relaxed);
          job.result = std::move(*hit);
          served = true;
        }
      }
      if (!served) {
        const AnalysisRequest& req = job.req();
        job.result = execute_request(req.graph, req.method, req.options, req.deadline_ms,
                                     req.cancel, worker.workspace, worker.request_serial);
        solve_hist_.record_ms(job.result.elapsed_ms);
        executed_.fetch_add(1, std::memory_order_relaxed);
        if (job.cacheable) {
          // Cacheable implies deterministic, so every outcome — Value,
          // Deadlock, Unbounded, structural Budget — is worth memoizing.
          cache_misses_.fetch_add(1, std::memory_order_relaxed);
          Analysis stored = job.result;
          stored.request_id = -1;
          stored.queue_ms = 0.0;
          stored.worker_id = worker_id;
          cache_.insert(job.key, std::move(stored));
        }
      }
    }
  } catch (...) {
    job.error = std::current_exception();
  }
  job.result.request_id = job.id;
  job.result.worker_id = worker_id;
  job.result.queue_ms = queue_ms;
}

Analysis ThroughputService::run_variant(const VariantRun& run, std::size_t index,
                                        Worker& worker) {
  const VariantBatch& batch = *run.batch;
  const bool kiter = batch.method == Method::KIter;
  // First variant of this batch on this worker: materialize the prepared
  // base once. Every later variant is revert + apply, O(delta). A K-Iter
  // batch also builds its serialization self-loops here, once: a delta
  // cannot change the graph's shape, so one list serves every variant.
  if (worker.variant_gen != run.gen) {
    worker.variant_graph = *run.prepared;
    worker.variant_gen = run.gen;
    worker.variant_applied = -1;
    worker.variant_rv_ready = false;
    if (kiter && batch.options.serialize_tasks) {
      serialization_buffers_into(*run.prepared, worker.variant_serial);
    } else {
      worker.variant_serial.clear();
    }
    // Batch start is a warm-state boundary: never seed the first variant of
    // a batch from whatever the worker solved last.
    worker.warm_k_valid = false;
    worker.workspace.reset_solver_warm_start();
  }
  const std::vector<GraphDelta>& deltas = batch.deltas;
  try {
    if (worker.variant_applied >= 0) {
      revert_delta(worker.variant_graph,
                   deltas[static_cast<std::size_t>(worker.variant_applied)], *run.prepared);
      worker.variant_applied = -1;
    }
    apply_delta(worker.variant_graph, deltas[index]);
    worker.variant_applied = static_cast<std::ptrdiff_t>(index);
  } catch (...) {
    // A throwing delta may leave the scratch mid-edit: re-key so the next
    // variant job starts from a fresh copy of the base.
    worker.variant_gen = 0;
    throw;
  }
  AnalysisOptions options = batch.options;
  if (!kiter) {
    // Serialization was applied to the base once; the variant must not get
    // a second layer of self-buffers.
    options.serialize_tasks = false;
    return execute_request(worker.variant_graph, batch.method, options, batch.deadline_ms,
                           batch.cancel, worker.workspace, worker.request_serial);
  }
  const bool rates = !deltas[index].rates.empty();
  const bool warm = batch.warm_start;
  if (warm && rates) {
    // A rate delta changes the repetition vector, so the previous variant's
    // K is meaningless here (kiter would sanitize it entry-by-entry, but an
    // rv change is a declared fallback boundary: go fully cold).
    worker.warm_k_valid = false;
    worker.workspace.reset_solver_warm_start();
  }
  if (warm) options.kiter.mcrp.howard_warm_start = true;
  return timed_request(
      Method::KIter, batch.cancel, worker.workspace, warm ? &worker.warm_k_valid : nullptr,
      [&] {
        // q once per batch: execution times and markings never change it,
        // so the base's q serves every variant whose delta leaves the
        // rates alone. A rate delta gets its own.
        RepetitionVector own;
        const RepetitionVector* rv = &worker.variant_rv;
        if (rates) {
          own = compute_repetition_vector(worker.variant_graph);
          rv = &own;
        } else if (!worker.variant_rv_ready) {
          worker.variant_rv = compute_repetition_vector(worker.variant_graph);
          worker.variant_rv_ready = true;
        }
        return run_kiter(worker.variant_graph, *rv, worker.variant_serial, options,
                         batch.deadline_ms, batch.cancel, worker.workspace,
                         warm ? &worker.warm_k : nullptr, warm ? &worker.warm_k_valid : nullptr);
      });
}

std::vector<Analysis> ThroughputService::run_symbolic_variants(const VariantRun& run,
                                                               const ExecTimeRay& ray) {
  const VariantBatch& batch = *run.batch;
  const auto n = batch.deltas.size();
  std::vector<Analysis> results(n);
  // The whole sweep runs sequentially on the caller's worker (like
  // analyze()): the region walk is inherently ordered — each anchor's exact
  // solve feeds the next region — and a sequential walk is what makes the
  // results trivially identical at any thread count.
  Worker& worker = *workers_.back();
  std::lock_guard<std::mutex> wk(worker.in_use);
  const int worker_id = static_cast<int>(workers_.size()) - 1;

  RegionCertifier certifier;
  std::vector<i64> prev_region_k;
  bool have_prev_region = false;

  std::size_t i = 0;
  while (i < n) {
    Analysis a = run_variant(run, i, worker);
    a.request_id = static_cast<i64>(i);
    a.worker_id = worker_id;
    const CriticalCycleCert cert = a.critical_cycle;  // empty unless exact Optimal, Ω > 0
    results[i] = std::move(a);
    if (cert.empty() || batch.cancel.cancelled()) {
      // Deadlock/Unbounded/budget/cancelled samples (and zero-period
      // corners) are warm-state boundaries exactly as in the per-point
      // path; the next sample re-anchors.
      have_prev_region = false;
      ++i;
      continue;
    }
    if (have_prev_region && cert.k != prev_region_k) {
      // Breakpoint verification: the exact re-solve landed on a different
      // final K than the region it ended. Conservative fallback — this
      // point stays served by the warm per-point solve just performed, no
      // region is anchored on it, and the next sample starts fresh.
      have_prev_region = false;
      ++i;
      continue;
    }
    // The anchor's workspace still holds its final-K constraint graph and
    // cyclic core; certify how far right along the ray its cycle stays
    // maximal (O(log range) exact positive-cycle checks).
    certifier.prepare(worker.workspace.constraints, cert, ray, static_cast<i64>(i));
    const i64 end = certifier.region_end(static_cast<i64>(n) - 1, worker.workspace.mcrp);
    for (i64 p = static_cast<i64>(i) + 1; p <= end; ++p) {
      Stopwatch clock;
      Analysis s;
      s.method = Method::KIter;
      s.outcome = Outcome::Value;
      s.quality = Quality::Exact;
      s.period = certifier.ratio_at(p);
      s.throughput = s.period.reciprocal();
      s.critical_cycle = cert;
      s.critical_cycle.cycle_cost = certifier.numerator_at(p);
      s.critical_cycle.ratio = s.period;
      s.detail = "symbolic region anchor=";
      s.detail += std::to_string(i);
      s.detail += " [";
      s.detail += std::to_string(i);
      s.detail += "..";
      s.detail += std::to_string(end);
      s.detail += "] ";
      append_k(s.detail, cert.k);
      s.request_id = p;
      s.worker_id = worker_id;
      s.elapsed_ms = clock.elapsed_ms();
      results[static_cast<std::size_t>(p)] = std::move(s);
    }
    prev_region_k = cert.k;
    have_prev_region = true;
    i = static_cast<std::size_t>(end) + 1;
  }
  return results;
}

std::vector<Analysis> ThroughputService::dispatch_and_wait(
    std::vector<std::shared_ptr<Job>>& jobs, const char* what) {
  // In-batch dedupe: a cacheable job whose exact key an earlier job of this
  // batch carries never runs; it replays that first copy's result below.
  // Without it, twins dealt to different shards could both miss the cache
  // and both solve. The digest only buckets; equality compares the words.
  std::unordered_multimap<u64, std::size_t> first_by_digest;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& job = *jobs[i];
    if (!job.cacheable) continue;
    const auto [lo, hi] = first_by_digest.equal_range(job.key.digest);
    const auto first =
        std::find_if(lo, hi, [&](const auto& entry) { return jobs[entry.second]->key == job.key; });
    if (first != hi) {
      job.twin_of = static_cast<std::ptrdiff_t>(first->second);
    } else {
      first_by_digest.emplace(job.key.digest, i);
    }
  }

  if (inline_mode()) {
    Worker& caller = *workers_.back();
    std::lock_guard<std::mutex> wk(caller.in_use);
    for (const std::shared_ptr<Job>& job : jobs) {
      if (job->twin_of < 0) run_job(*job, static_cast<int>(workers_.size()) - 1);
    }
  } else {
    // Dispatch-time cache pass: hits bypass the queues entirely, so a
    // fully-warm batch costs one striped lookup per request and never
    // wakes a worker.
    BatchSync sync;
    std::size_t to_run = 0;
    for (const std::shared_ptr<Job>& job : jobs) {
      if (job->twin_of < 0 && !try_dispatch_hit(*job)) ++to_run;
    }
    if (to_run > 0) {
      sync.remaining = to_run;
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (stopping_.load(std::memory_order_relaxed)) {
          throw SolverError(std::string("ThroughputService: ") + what + " after shutdown");
        }
        // Deal misses round-robin across the shards so every worker's local
        // queue gets a contiguous slice to chew through LIFO.
        u64 rr = next_shard_rr_.fetch_add(to_run, std::memory_order_relaxed);
        for (const std::shared_ptr<Job>& job : jobs) {
          if (job->twin_of >= 0 || job->served_at_dispatch) continue;
          job->sync = &sync;
          enqueue(job, static_cast<std::size_t>(rr++ % shards_.size()));
        }
      }
      wake_workers(true);
      std::unique_lock<std::mutex> lk(sync.mu);
      sync.cv.wait(lk, [&] { return sync.remaining == 0; });
    }
  }

  std::vector<Analysis> results;
  results.reserve(jobs.size());
  for (const std::shared_ptr<Job>& job : jobs) {
    if (job->error) std::rethrow_exception(job->error);
    if (job->twin_of < 0) {
      results.push_back(std::move(job->result));
      continue;
    }
    // A twin's first copy precedes it, so that result is already in place
    // (an error there was rethrown above). Stamped like a dispatch hit.
    Analysis twin = results[static_cast<std::size_t>(job->twin_of)];
    twin.request_id = job->id;
    twin.queue_ms = 0.0;
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    results.push_back(std::move(twin));
  }
  return results;
}

std::vector<Analysis> ThroughputService::analyze_batch(std::span<const AnalysisRequest> requests) {
  std::vector<std::shared_ptr<Job>> jobs;
  jobs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto job = std::make_shared<Job>();
    job->request = &requests[i];
    job->id = static_cast<i64>(i);
    prepare_cache_key(*job);
    jobs.push_back(std::move(job));
  }
  return dispatch_and_wait(jobs, "analyze_batch");
}

std::vector<Analysis> ThroughputService::analyze_variants(const VariantBatch& batch) {
  // Delta ids are validated against the BASE graph up front, so a bad id is
  // reported before any variant runs. Non-K-Iter workers also apply deltas
  // to a serialization-augmented copy, where an out-of-range base buffer id
  // would silently resolve to a serialization self-loop instead of
  // throwing.
  for (std::size_t i = 0; i < batch.deltas.size(); ++i) {
    try {
      validate_delta_targets(batch.base, batch.deltas[i]);
    } catch (const Error& err) {
      throw ModelError("analyze_variants: deltas[" + std::to_string(i) + "]: " + err.what());
    }
  }

  VariantRun run;
  run.batch = &batch;
  // K-Iter variants run on the base as given, with the self-loops as extra
  // generator input (run_variant); the other methods analyze a serialized
  // copy, made here once for every worker.
  CsdfGraph serialized;
  if (batch.options.serialize_tasks && batch.method != Method::KIter) {
    serialized = add_serialization_buffers(batch.base);
    run.prepared = &serialized;
  } else {
    run.prepared = &batch.base;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    run.gen = ++next_variant_gen_;
  }

  // Symbolic-region mode: only for KIter sweeps whose deltas form an affine
  // exec-time ray (anything else falls through to the per-point pool path).
  if (batch.symbolic && batch.method == Method::KIter) {
    if (const std::optional<ExecTimeRay> ray = infer_exec_time_ray(batch.deltas)) {
      return run_symbolic_variants(run, *ray);
    }
  }

  std::vector<std::shared_ptr<Job>> jobs;
  jobs.reserve(batch.deltas.size());
  for (std::size_t i = 0; i < batch.deltas.size(); ++i) {
    auto job = std::make_shared<Job>();
    job->variant = &run;
    job->variant_index = i;
    job->id = static_cast<i64>(i);
    jobs.push_back(std::move(job));
  }
  return dispatch_and_wait(jobs, "analyze_variants");
}

ScenarioAnalysis ThroughputService::analyze_scenario(const ScenarioRequest& request) {
  Stopwatch clock;
  // Validate up front so a malformed scenario is reported before any state
  // runs (scenario_worst_case would re-check, but only after the batch).
  validate_scenario(request.scenario);
  VariantBatch batch;
  batch.base = request.scenario.base;
  batch.deltas.reserve(request.scenario.states.size());
  for (const ScenarioState& st : request.scenario.states) batch.deltas.push_back(st.delta);
  batch.method = request.method;
  batch.options = request.options;
  batch.deadline_ms = request.deadline_ms;
  batch.warm_start = request.warm_start;
  batch.cancel = request.cancel;
  ScenarioAnalysis out = scenario_worst_case(request.scenario, analyze_variants(batch));
  out.elapsed_ms = clock.elapsed_ms();
  return out;
}

i64 ThroughputService::submit(AnalysisRequest request) {
  auto job = std::make_shared<Job>();
  job->owned = std::move(request);
  job->ticketed = true;
  // The content key is snapshotted HERE, from the graph the service owns —
  // the caller mutating its (already moved-from) graph afterwards cannot
  // poison the cache.
  prepare_cache_key(*job);
  const bool hit = try_dispatch_hit(*job);
  i64 id;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      throw SolverError("ThroughputService: submit after shutdown");
    }
    id = next_ticket_++;
    job->id = id;
    tickets_.emplace(id, job);
    if (!hit && !inline_mode()) {
      // Content-hash placement: identical requests land on the same shard,
      // unrelated ones spread; uncacheable requests round-robin.
      const std::size_t shard =
          job->cacheable
              ? static_cast<std::size_t>(job->key.digest) % shards_.size()
              : static_cast<std::size_t>(
                    next_shard_rr_.fetch_add(1, std::memory_order_relaxed)) %
                    shards_.size();
      enqueue(job, shard);
    }
  }
  if (hit) {
    job->result.request_id = id;  // the hit was stamped before the id existed
    complete_job(job);
  } else if (inline_mode()) {
    Worker& caller = *workers_.back();
    std::lock_guard<std::mutex> wk(caller.in_use);
    run_job(*job, static_cast<int>(workers_.size()) - 1);
    complete_job(job);
  } else {
    wake_workers(false);
  }
  return id;
}

Analysis ThroughputService::wait(i64 ticket) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    const auto it = tickets_.find(ticket);
    if (it == tickets_.end()) {
      throw SolverError("ThroughputService::wait: unknown or already-collected ticket");
    }
    job = it->second;
    tickets_.erase(it);
  }
  {
    std::unique_lock<std::mutex> lk(done_mu_);
    job_done_.wait(lk, [&] { return job->done; });
  }
  if (job->error) std::rethrow_exception(job->error);
  return std::move(job->result);
}

Analysis ThroughputService::analyze(const CsdfGraph& g, Method method,
                                    const AnalysisOptions& options, double deadline_ms,
                                    const CancelToken& cancel) {
  const int caller_id = static_cast<int>(workers_.size()) - 1;
  ContentKey key;
  const bool cacheable =
      cache_.enabled() && cacheable_request(method, options, deadline_ms, cancel);
  if (cacheable) {
    build_request_key(g, method, options, key);
    if (std::optional<Analysis> hit = cache_.find(key)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return std::move(*hit);
    }
  }
  Worker& caller = *workers_.back();
  std::lock_guard<std::mutex> wk(caller.in_use);
  Analysis a = execute_request(g, method, options, deadline_ms, cancel, caller.workspace,
                               caller.request_serial);
  a.worker_id = caller_id;
  solve_hist_.record_ms(a.elapsed_ms);
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (cacheable) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    cache_.insert(key, a);
  }
  return a;
}

}  // namespace kp
