// ThroughputService: batch, multi-threaded throughput analysis with
// deadlines, cancellation, per-worker workspace reuse, a content-addressed
// result cache, and sharded work-stealing request queues.
//
// Design-space exploration workloads (buffer-sizing sweeps, multi-scenario
// analyses) evaluate thousands of graph variants per run; a serving
// deployment additionally sees the SAME graphs resubmitted over and over
// (millions of users exploring overlapping design points). The service
// keeps a fixed pool of workers, each owning one long-lived KIterWorkspace
// reused across every analysis it serves — so the zero-allocation
// warm-round contract of core/kiter.hpp pays off across requests, not just
// within one — and, in front of the pool, a bounded content-addressed
// memo of completed analyses keyed by the request's exact content.
//
// Three ways in:
//   * analyze_batch(requests) — run them all over the pool; results come
//     back in request order and are bit-identical regardless of the thread
//     count, the shard layout, and whether the result cache is on (a hit
//     replays a value a deterministic solve produced; each analysis is
//     independent and deterministic; only the timing/worker metadata varies
//     between runs). Caveat: that guarantee holds for requests without
//     wall-clock limits — a deadline_ms or a time_budget_ms races real
//     time, so its budget-limited rows can flip under worker contention;
//     structural budgets (max_constraint_pairs, max_states) stay
//     deterministic at any thread count. With the cache on, identical
//     cacheable requests within one call are solved once (in-batch
//     dedupe, below);
//   * submit(request) / wait(id) — async: enqueue now, collect later;
//   * analyze(graph, method, ...) — serve one request inline on the
//     calling thread (what analyze_throughput uses).
//
// Result cache (ServiceOptions::result_cache_capacity): the key is the
// request's EXACT content — the graph snapshot of
// core/constraints.hpp::append_content_snapshot (per-task phase counts and
// durations, per-buffer endpoints/marking/rates) plus the method and every
// option that can influence the result. No hashing is involved in
// identity: the key's digest only routes to a lock stripe
// (util/lru_cache.hpp), equality compares the flattened words exactly, so
// a cache hit is guaranteed bit-identical — outcome, period, throughput,
// detail string, critical_cycle cert — to re-running the solve. A hit
// found at dispatch bypasses the queue entirely. Within one analyze_batch
// call, every cacheable request whose exact key an earlier request of the
// same call carries is a twin: only the first copy is dispatched, and each
// twin replays its result once the batch completes, stamped and counted
// like a dispatch hit — so a batch solves each distinct request at most
// once, whatever the shard layout. Across concurrent calls there is no
// such coalescing; a submit() twin that was already queued when its first
// copy completed is served by a second lookup on the worker (a "late
// hit"). Requests that race wall-clock or carry cancellation hooks
// (deadline_ms >= 0, a cancellable token, a poll hook, a time budget) are
// NEVER cached — their outcome is not a pure function of content — and
// variant-batch/scenario analyses keep using the cross-variant constraint
// cache instead. Entries are bounded by per-stripe LRU eviction.
//
// A miss is meant to cost a lookup and little else, since a serving
// workload of new content only ever misses, inserts and evicts: a key is
// built into storage its calling thread reuses (a batch or submit() job
// keeps one exactly sized copy, analyze() none), each stripe is a
// flat slab probed through an open-addressed digest index, and an insert
// writes the key (exactly sized) and the Analysis into the evicted slot
// instead of allocating list and hash nodes. With the serialization
// self-loops and q also in worker scratch, a cold K-Iter request on a warm
// inline service allocates about what its Analysis holds, plus the key copy
// the cache keeps (tests/test_serving.cpp, ServingAllocations).
//
// Request queues are sharded (ServiceOptions::queue_shards, default one
// per worker): each worker owns a local deque and pops it LIFO (newest
// first — the producer just touched that memory), batch dispatch deals
// jobs round-robin and submit() routes by content hash, and a worker whose
// shard runs dry STEALS the oldest job of another shard (FIFO steal), so
// one slow Deadlock-bound request serializes nothing but itself. Queues
// carry requests only; each request's MCRP solves run on the worker that
// took it.
//
// Every moving part is observable: stats() snapshots cache hit/miss/
// eviction counters, steal counts, per-shard queue-depth high-water marks
// and queue/solve latency histograms (p50/p99) from relaxed atomics — no
// lock, no pool stall (ServiceStats).
//
// Deadlines and cancellation are cooperative. A request's deadline_ms and
// CancelToken are threaded into the K-Iter round loop as its poll hook, so
// KIter exits between rounds *and* mid-round (every KIterOptions::
// poll_row_stride producer rows of constraint generation). A cancelled
// request reports Outcome::Budget; an expired deadline reports the best
// achievable bound found so far as Quality::AchievableBound (matching
// KIter's time_budget_ms semantics — the detail string says the budget
// was hit), or Outcome::Budget when no round completed. For
// SymbolicExecution the deadline tightens the simulator's time budget and
// the token is polled once per explored state inside the exploration loop
// (SimOptions::poll), so cancellation stops a long state sweep mid-flight;
// Periodic/Expansion check the token only before execution starts (both
// are single-shot solves). A cancelled or expired request never aborts
// the rest of a batch — every other request still runs to completion.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/analysis.hpp"
#include "core/kperiodic.hpp"
#include "model/transform.hpp"
#include "scenario/scenario.hpp"
#include "util/hash.hpp"
#include "util/histogram.hpp"
#include "util/lru_cache.hpp"

namespace kp {

/// Shared cooperative cancellation flag. Copies observe the same cancel();
/// a default-constructed token is inert (never cancellable). Thread-safe.
class CancelToken {
 public:
  CancelToken() = default;

  /// A fresh, cancellable token.
  [[nodiscard]] static CancelToken create() {
    CancelToken t;
    t.state_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  void cancel() const {
    if (state_) state_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const {
    return state_ && state_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancellable() const { return state_ != nullptr; }

  /// The raw flag, for wiring into poll hooks without allocation (null for
  /// an inert token).
  [[nodiscard]] const std::atomic<bool>* flag() const { return state_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// One unit of work: a graph, the engine to run, its options, and the
/// request-level controls (deadline, cancellation).
struct AnalysisRequest {
  CsdfGraph graph;
  Method method = Method::KIter;
  AnalysisOptions options{};

  /// Wall-clock budget for this request, measured from execution start on a
  /// worker; < 0 disables. Tightens (never loosens) the per-engine budgets
  /// already in `options`. Setting any deadline also makes the request
  /// uncacheable (its outcome races real time).
  double deadline_ms = -1.0;

  /// Cooperative cancel (see the header comment for per-method granularity).
  /// A cancellable token makes the request uncacheable.
  CancelToken cancel{};
};

struct ServiceOptions {
  /// Worker threads. 0 = inline mode: no threads are spawned and every
  /// request runs on the calling thread through worker 0's persistent
  /// workspace. < 0 = one worker per available hardware thread.
  int threads = -1;

  /// Work-queue shards. Each worker owns shard (worker_id mod shards),
  /// pops its own shard LIFO, and steals the OLDEST job of another shard
  /// when its own runs dry. <= 0 = one shard per worker, the default; more
  /// shards than workers is legal (the extra shards are served purely by
  /// stealing — useful for tests and for keeping submit()'s content-hash
  /// placement stable while the pool is resized).
  int queue_shards = 0;

  /// Entries the content-addressed result cache may hold; 0 disables
  /// caching entirely. The cache memoizes completed analyses of
  /// wall-clock-free requests by exact content (see the header comment) —
  /// a resubmitted graph costs one striped-LRU lookup instead of a solve.
  /// Bounded by per-stripe LRU eviction, so memory never grows with
  /// traffic.
  std::size_t result_cache_capacity = 4096;
};

/// A point-in-time snapshot of the service's serving-path counters,
/// readable at any moment without stopping the pool (stats() reads relaxed
/// atomics only; numbers lag in-flight work by at most one increment).
struct ServiceStats {
  // Content-addressed result cache. hits counts dispatch bypasses,
  // in-batch twins AND late hits on a worker; hits + misses = cacheable
  // requests completed.
  // Uncacheable requests (deadlines, cancel tokens, poll hooks, variant
  // batches) touch none of these.
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 cache_evictions = 0;
  u64 cache_size = 0;          ///< live entries
  std::size_t cache_capacity = 0;  ///< 0 = cache disabled

  // Sharded-queue activity.
  u64 steals = 0;         ///< jobs taken from a foreign shard
  u64 jobs_executed = 0;  ///< analyses actually solved (cache hits excluded)
  std::vector<u64> shard_depth_high_water;  ///< max queued jobs ever, per shard

  // Latency distributions (util/histogram.hpp): queue = enqueue-to-claim
  // wait of every job a worker dequeued; solve = execution time of every
  // analysis actually solved. Percentiles via e.g. queue.percentile_ms(.99).
  LatencyHistogram::Snapshot queue;
  LatencyHistogram::Snapshot solve;

  /// hits / (hits + misses); 0 when no cacheable request completed yet.
  [[nodiscard]] double hit_rate() const noexcept {
    const u64 total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

/// A parametric DSE batch: one base graph plus one GraphDelta per variant
/// (model/transform.hpp). This is the cheap way to analyze thousands of
/// near-identical graphs: the service ships deltas instead of graphs, each
/// worker keeps ONE materialized variant graph per batch and turns it into
/// the next assigned variant by reverting the previous delta and applying
/// the new one (O(delta), no per-variant copy), and the content-keyed
/// constraint cache in the worker's warm KIterWorkspace patches only the
/// buffers each delta actually touched — an execution-time-only delta
/// rewrites L payloads on the live constraint graph and re-enumerates
/// nothing. Results are bit-identical to analyzing every variant cold
/// (make_variant + a fresh workspace), at any thread count, with the same
/// wall-clock caveat analyze_batch documents for deadline/time budgets.
struct VariantBatch {
  CsdfGraph base;
  std::vector<GraphDelta> deltas;
  Method method = Method::KIter;
  AnalysisOptions options{};

  /// Per-variant wall-clock budget, measured from execution start on a
  /// worker; < 0 disables.
  double deadline_ms = -1.0;

  /// Warm-start the solvers across the batch's variants (KIter only): each
  /// worker seeds every variant's periodicity vector with the final K of
  /// the previous variant it solved (KIterOptions::initial_k), and every
  /// MCRP solve seeds λ with the previous solve's critical circuit whenever
  /// its arc ids still form a simple circuit of the new constraint graph
  /// (McrpOptions::howard_warm_start, which also keeps the solver's cyclic
  /// core when the graph was rewritten in place). Values — throughput,
  /// period, Deadlock/Unbounded classification — are identical to a cold
  /// sweep; only the trajectory metadata (Analysis::rounds, the final K in
  /// `detail`, iteration counts) may differ, which is why this is a
  /// batch-level switch: turn it off to get detail strings bit-identical to
  /// cold per-variant analyses. Warm state is per worker and resets at
  /// batch start and after any fallback (base re-materialization,
  /// rate-changing delta, Deadlock/Unbounded/budget outcome): the next
  /// variant starts from K = 1 with an unseeded first solve, so sweep order
  /// never leaks across those boundaries.
  bool warm_start = true;

  /// Symbolic-region mode (KIter only). When the batch's deltas form an
  /// affine execution-time ray with the variant index as parameter
  /// (model/transform.hpp, infer_exec_time_ray), the sweep is served by the
  /// symbolic-region engine (core/regions.hpp): a handful of region anchors
  /// are solved exactly (riding the warm_start machinery), each anchor's
  /// critical-cycle cert is certified along the ray, and every in-region
  /// variant's period is an O(cycle-length) rational evaluation — no
  /// K-iteration, no MCRP solve. Results are bit-identical to a cold
  /// per-variant sweep in outcome/quality/period/throughput; `detail` says
  /// "symbolic region ..." and `rounds` stays 0 for the evaluated points.
  /// At each region breakpoint the engine re-solves exactly and, if the
  /// final K changed, serves that point from the warm per-point path and
  /// re-anchors at the next sample. The whole sweep runs sequentially on
  /// the calling thread — determinism at any thread count is trivial; the
  /// win is algorithmic, not parallel. Non-affine or non-exec-time batches
  /// (and non-KIter methods) fall back to the normal per-point pool path.
  bool symbolic = false;

  /// Shared across the batch: cancelling stops every variant that has not
  /// finished (started ones stop cooperatively, unstarted ones report
  /// Outcome::Budget).
  CancelToken cancel{};
};

/// A multi-mode scenario analysis (scenario/scenario.hpp): the scenario's
/// states become one VariantBatch — so per-state solves ride the variant
/// cache and cross-variant warm starts — and the results are combined into
/// the worst case over reachable FSM cycles. Deadline/cancel semantics are
/// VariantBatch's: deadline_ms budgets each state, the token stops the
/// whole scenario, and any state cut short turns the scenario verdict into
/// ScenarioStatus::Budget (a partial bound would not be one).
struct ScenarioRequest {
  ScenarioGraph scenario;
  Method method = Method::KIter;
  AnalysisOptions options{};

  /// Per-state wall-clock budget, measured from execution start on a
  /// worker; < 0 disables.
  double deadline_ms = -1.0;

  /// See VariantBatch::warm_start. Scenario-level values (status, worst
  /// period/throughput, binding cycle) are bit-identical warm or cold; only
  /// per-state trajectory metadata differs.
  bool warm_start = true;

  CancelToken cancel{};
};

class ThroughputService {
 public:
  explicit ThroughputService(ServiceOptions options = {});
  ~ThroughputService();
  ThroughputService(const ThroughputService&) = delete;
  ThroughputService& operator=(const ThroughputService&) = delete;

  /// Pool size (>= 1; in inline mode the calling thread is the one worker).
  [[nodiscard]] int worker_count() const {
    return threads_.empty() ? 1 : static_cast<int>(threads_.size());
  }
  /// True when no worker threads exist and requests run on the caller.
  [[nodiscard]] bool inline_mode() const { return threads_.empty(); }
  /// Resolved work-queue shard count (>= 1).
  [[nodiscard]] int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Snapshot of the serving-path counters (see ServiceStats). Never
  /// blocks the pool: relaxed atomic reads only. Counters accumulate over
  /// the service's lifetime.
  [[nodiscard]] ServiceStats stats() const;

  /// Analyzes every request over the pool. results[i] answers requests[i]
  /// with request_id == i; the value fields (outcome/quality/period/
  /// throughput/k-detail) are deterministic regardless of worker_count()
  /// and of the result cache being on or off. With the cache on, cacheable
  /// requests with identical content are solved once per call: later
  /// copies replay the first copy's result with queue_ms 0 and count as
  /// cache hits, so stats().jobs_executed grows by at most the number of
  /// distinct requests.
  [[nodiscard]] std::vector<Analysis> analyze_batch(std::span<const AnalysisRequest> requests);

  /// Analyzes every variant of `batch.base` over the pool: results[i]
  /// answers base + deltas[i] with request_id == i, in delta order, with
  /// the same determinism guarantee as analyze_batch. Serialization
  /// (options.serialize_tasks) is prepared once per batch on each worker:
  /// K-Iter builds the base's self-loops once and hands them to the
  /// constraint generator, and computes q once on the base (again only for
  /// a variant whose delta edits rates); the other methods copy a base
  /// serialized once. Delta ids refer to the base graph and stay valid. A
  /// delta naming a task/buffer id the base does not have throws
  /// ModelError before any variant runs;
  /// other invalid deltas (wrong vector size, negative value) throw out of
  /// this call after the batch drains, like an engine error in
  /// analyze_batch would.
  [[nodiscard]] std::vector<Analysis> analyze_variants(const VariantBatch& batch);

  /// Analyzes every mode of `request.scenario` over the pool (as a variant
  /// batch, same determinism guarantee), then runs the exact worst-case
  /// combine (scenario_worst_case). The scenario-level result is
  /// deterministic at any thread count and identical with warm_start on or
  /// off; per-state analyses are returned in ScenarioAnalysis::states.
  [[nodiscard]] ScenarioAnalysis analyze_scenario(const ScenarioRequest& request);

  /// Async path: enqueue one request (the graph is moved in), returns the
  /// ticket to pass to wait(). The request's content is snapshotted into
  /// the job before submit() returns, so mutating the caller's graph
  /// afterwards can neither change the analysis nor poison the result
  /// cache. A cache hit completes the ticket before submit() returns; in
  /// inline mode every request is served synchronously.
  i64 submit(AnalysisRequest request);

  /// Blocks until the submitted request finishes, returns its Analysis and
  /// forgets the ticket. Throws SolverError for an unknown/already-waited
  /// ticket. A pending request whose token is cancelled while queued (or
  /// when the service is destroyed) completes with Outcome::Budget instead
  /// of running.
  [[nodiscard]] Analysis wait(i64 ticket);

  /// Serves one request inline on the calling thread (no graph copy),
  /// through worker 0's workspace. Rides the result cache like any other
  /// request.
  [[nodiscard]] Analysis analyze(const CsdfGraph& g, Method method,
                                 const AnalysisOptions& options = {}, double deadline_ms = -1.0,
                                 const CancelToken& cancel = {});

 private:
  struct Job;
  struct VariantRun;
  struct BatchSync;
  struct Shard;

  struct Worker {
    KIterWorkspace workspace;
    std::mutex in_use;  // guards the workspace in inline mode

    /// Per-request scratch of the plain K-Iter request being served. Every
    /// plain request rewrites both, so no batch state may live here:
    ///  * request_serial — its serialization self-loops
    ///    (serialization_buffers_into), handed to the constraint generator
    ///    instead of a serialized graph copy. Elements past the request's
    ///    own loops are kept from larger graphs, so a smaller graph after a
    ///    larger one destroys and rebuilds nothing;
    ///  * request_rv — its repetition vector
    ///    (compute_repetition_vector_into), whose q keeps its capacity
    ///    across requests.
    std::vector<Buffer> request_serial;
    RepetitionVector request_rv;

    // analyze_variants scratch: the one materialized variant graph this
    // worker mutates through the batch, keyed by batch generation (0 =
    // none) so a graph left over from an earlier batch is never mistaken
    // for the current base. The K-Iter batch state below shares that key.
    // It is kept apart from request_serial because a pool worker
    // interleaves jobs of different calls: a plain request may run between
    // two variant jobs of one batch.
    u64 variant_gen = 0;
    std::ptrdiff_t variant_applied = -1;  ///< delta currently applied, -1 = base
    CsdfGraph variant_graph;
    /// K-Iter batches: the base's serialization self-loops (built once per
    /// batch — a delta cannot change the graph's shape — into the front of
    /// variant_serial; variant_loops views them) and the base's q
    /// (computed on first use, valid when variant_rv_ready).
    std::vector<Buffer> variant_serial;
    std::span<const Buffer> variant_loops;
    bool variant_rv_ready = false;
    RepetitionVector variant_rv;

    // Cross-variant warm-start state (VariantBatch::warm_start): the final
    // periodicity vector of the last Optimal variant this worker solved in
    // the current batch. Invalid at batch start and after any fallback.
    bool warm_k_valid = false;
    std::vector<i64> warm_k;
  };

  void worker_loop(int worker_id);
  void run_job(Job& job, int worker_id);
  void prepare_cache_key(Job& job) const;
  [[nodiscard]] bool try_dispatch_hit(Job& job);
  void complete_job(const std::shared_ptr<Job>& job);
  void enqueue(std::shared_ptr<Job> job, std::size_t shard);
  void wake_workers(bool all);
  [[nodiscard]] std::shared_ptr<Job> take_job(std::size_t own_shard);
  Analysis run_variant(const VariantRun& run, std::size_t index, Worker& worker);
  [[nodiscard]] std::vector<Analysis> run_symbolic_variants(const VariantRun& run,
                                                            const ExecTimeRay& ray);
  [[nodiscard]] std::vector<Analysis> dispatch_and_wait(
      std::vector<std::shared_ptr<Job>>& jobs, const char* what);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sharded queues + sleep/wake protocol: shard deques are individually
  // locked; pending_ counts queued entries across all shards so an idle
  // worker knows whether a steal scan is worth it; wake_mu_ exists only to
  // close the check-then-sleep race (see wake_workers).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<i64> pending_{0};
  std::mutex wake_mu_;
  std::condition_variable work_ready_;

  // Ticket completion (submit/wait) and service state.
  std::mutex done_mu_;
  std::condition_variable job_done_;
  std::mutex state_mu_;  ///< tickets, generation counters, stopping handshake
  std::unordered_map<i64, std::shared_ptr<Job>> tickets_;
  i64 next_ticket_ = 0;
  u64 next_variant_gen_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<u64> next_shard_rr_{0};

  // Serving-path observability + the result cache (see ServiceStats).
  StripedLruCache<Analysis> cache_;
  std::atomic<u64> cache_hits_{0};
  std::atomic<u64> cache_misses_{0};
  std::atomic<u64> steals_{0};
  std::atomic<u64> executed_{0};
  LatencyHistogram queue_hist_;
  LatencyHistogram solve_hist_;
};

}  // namespace kp
