#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "core/constraints.hpp"
#include "core/regions.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "trace.hpp"
#include "util/lru_cache.hpp"

namespace kpbench {

using namespace kp;

namespace {

/// The verdict a request must reproduce.
struct Expected {
  Outcome outcome = Outcome::Value;
  Rational period;
};

/// True when `a` reproduces `e`: same outcome, and for a value the same
/// exact period. Budget outcomes never match.
bool matches(const Analysis& a, const Expected& e) {
  if (a.outcome != e.outcome || a.outcome == Outcome::Budget) return false;
  return a.outcome != Outcome::Value || (a.quality == Quality::Exact && a.period == e.period);
}

// ---- inputs shared by the serving workloads ----------------------------------

/// Pool sizes. Each serving pass sends every base once, scaled by a factor
/// no earlier pass used.
constexpr std::size_t kUniquePool = 512;
constexpr std::size_t kDupPool = 256;

/// A size class: bases whose final constraint graph has [min, max) arcs,
/// split into buckets of `width` arcs. A pool takes the same number of bases
/// from every bucket, so within a class requests cost about the same, the
/// median and the tail come from one distribution, and the pool's cost
/// profile is the same for every seed.
struct SizeClass {
  i64 min;
  i64 max;
  i64 width;

  [[nodiscard]] std::size_t buckets() const { return static_cast<std::size_t>((max - min) / width); }
  /// Bucket of `arcs`, or buckets() when outside the class.
  [[nodiscard]] std::size_t bucket_of(i64 arcs) const {
    return arcs < min || arcs >= max ? buckets() : static_cast<std::size_t>((arcs - min) / width);
  }
};

/// Per-bucket quota for a pool of `size` bases.
class Quota {
 public:
  Quota(SizeClass c, std::size_t size) : class_(c), left_(c.buckets(), size / c.buckets()) {}

  /// True (and one slot used) when a base of `arcs` arcs still fits.
  bool take(i64 arcs) {
    const std::size_t b = class_.bucket_of(arcs);
    if (b == left_.size() || left_[b] == 0) return false;
    --left_[b];
    return true;
  }
  void give_back(i64 arcs) { ++left_[class_.bucket_of(arcs)]; }

 private:
  SizeClass class_;
  std::vector<std::size_t> left_;
};

/// serving_unique takes the modal band of bench_batch's random suite;
/// serving_dup takes smaller graphs, so that its few solves stay cheap next
/// to keying, lookups and dispatch.
constexpr SizeClass kUniqueClass{20, 36, 1};
constexpr SizeClass kDupClass{10, 18, 1};

/// Content c is pool base c % size with every execution time multiplied by
/// kFactorBase + c / size. A large base keeps the factors' magnitudes
/// within a narrow range over a run, so every solve does the same work.
constexpr i64 kFactorBase = 1000;

/// Distinct streams per workload from one --seed.
std::uint64_t stream(std::uint64_t seed, std::uint64_t tag) {
  return seed * 0x9e3779b97f4a7c15ULL + tag;
}

i64 duration_gcd(const CsdfGraph& g) {
  i64 out = 0;
  for (const Task& t : g.tasks()) {
    for (const i64 d : t.durations) out = std::gcd(out, d);
  }
  return out;
}

/// Bases plus their SymbolicExecution verdicts at factor 1.
struct ServingPool {
  std::vector<CsdfGraph> bases;
  std::vector<Expected> refs;

  /// Pool base of content c and its execution-time factor.
  [[nodiscard]] std::size_t base_of(i64 c) const { return static_cast<std::size_t>(c) % bases.size(); }
  [[nodiscard]] i64 factor_of(i64 c) const {
    return kFactorBase + c / static_cast<i64>(bases.size());
  }

  /// Scaling every execution time by f scales every cycle ratio by f, so
  /// the verdict is the base's with its period times f.
  [[nodiscard]] Expected expected(i64 c) const {
    Expected e = refs[base_of(c)];
    if (e.outcome == Outcome::Value) e.period = e.period * Rational(factor_of(c));
    return e;
  }

  /// Writes content c's execution times into `work`, a copy of its base.
  void scale_into(CsdfGraph& work, i64 c, std::vector<i64>& scratch) const {
    const CsdfGraph& base = bases[base_of(c)];
    const i64 f = factor_of(c);
    for (TaskId t = 0; t < base.task_count(); ++t) {
      const std::vector<i64>& d = base.task(t).durations;
      scratch.resize(d.size());
      for (std::size_t p = 0; p < d.size(); ++p) scratch[p] = d[p] * f;
      work.set_durations(t, scratch);
    }
  }
};

/// Draws distinct bases whose execution times have gcd 1. Two contents
/// (base i, factor f) and (base j, factor g) then differ unless i = j and
/// f = g: the gcd of the scaled times is the factor, and the pool holds no
/// duplicate. So no content key repeats within a run, by construction.
ServingPool make_serving_pool(std::uint64_t seed, std::size_t size, SizeClass size_class) {
  Rng rng(seed);
  RandomCsdfOptions gen;
  gen.min_tasks = 3;
  gen.max_tasks = 9;
  gen.max_phases = 3;
  gen.max_q = 6;
  KIterOptions kiter;
  kiter.want_schedule = false;
  KIterWorkspace ws;
  std::set<std::vector<i64>> seen;
  Quota quota(size_class, size);
  ServingPool pool;
  while (pool.bases.size() < size) {
    CsdfGraph g = random_csdf(rng, gen);
    if (duration_gcd(g) != 1) continue;
    const CsdfGraph s = add_serialization_buffers(g);
    const KIterResult r = kiter_throughput(s, compute_repetition_vector(s), kiter, ws);
    const i64 arcs = ws.constraints.graph.arc_count();
    if (r.status != ThroughputStatus::Optimal || !quota.take(arcs)) continue;
    std::vector<i64> words;
    append_content_snapshot(g, words);
    const Analysis ref = analyze_throughput(g, Method::SymbolicExecution);
    // Skip duplicates, and bases the reference engine ran out of budget on.
    if (!seen.insert(std::move(words)).second || ref.outcome != Outcome::Value) {
      quota.give_back(arcs);
      continue;
    }
    pool.refs.push_back(Expected{ref.outcome, ref.period});
    pool.bases.push_back(std::move(g));
  }
  return pool;
}

/// The service's cold path for one cacheable KIter request after its cache
/// miss (execute_request + run_kiter), on the replay workspace.
void replay_cold_request(const CsdfGraph& g, KIterWorkspace& ws, Tracer& tracer,
                         std::int32_t root) {
  const CsdfGraph s = tracer.span(Layer::Serialize, root, [&] { return add_serialization_buffers(g); });
  const RepetitionVector rv =
      tracer.span(Layer::Repetition, root, [&] { return compute_repetition_vector(s); });
  KIterOptions kiter;
  kiter.want_schedule = false;
  const KIterResult r = tracer.span(Layer::Kiter, root, [&] { return kiter_throughput(s, rv, kiter, ws); });
  tracer.kiter_counters(r, ws.solved.exact_iterations);
  if (r.status == ThroughputStatus::Optimal) {
    tracer.span(Layer::Cert, root,
                [&] { return extract_critical_cycle_cert(ws.constraints, ws.solved); });
  }
}

void build_key(const CsdfGraph& g, ContentKey& key) {
  key.words.clear();
  append_content_snapshot(g, key.words);
  key.finalize();
}

// ---- serving_unique ----------------------------------------------------------

/// Single analyze() calls on an inline service; every request's content is
/// new, so each one takes the whole cold path and, once the cache is full,
/// evicts an entry on insert.
class ServingUnique final : public Workload {
 public:
  explicit ServingUnique(std::uint64_t seed)
      : pool_(make_serving_pool(stream(seed, 1), kUniquePool, kUniqueClass)), work_(pool_.bases) {}

  [[nodiscard]] std::unique_ptr<ThroughputService> make_service() const override {
    return std::make_unique<ThroughputService>(ServiceOptions{.threads = 0});
  }

  /// One cache capacity of requests, so every timed insert evicts.
  [[nodiscard]] i64 warmup_calls() const override {
    return static_cast<i64>(ServiceOptions{}.result_cache_capacity);
  }
  [[nodiscard]] i64 pass_calls() const override { return static_cast<i64>(kUniquePool); }
  [[nodiscard]] i64 window_passes() const override { return 32; }
  /// p99.9 moves with host load; p99 has 164 samples beyond it in a window.
  [[nodiscard]] double tail_cap() const override { return 0.99; }

  CallResult call(ThroughputService& service, i64 index) override {
    CsdfGraph& g = work_[pool_.base_of(index)];
    pool_.scale_into(g, index, scratch_);
    CallResult out;
    out.analyses = 1;
    out.new_contents = 1;
    last_.resize(1);
    const std::int64_t start = now_ns();
    out.start_ns = start;
    try {
      last_[0] = service.analyze(g, Method::KIter);
      out.ns = now_ns() - start;
      out.failed = matches(last_[0], pool_.expected(index)) ? 0 : 1;
    } catch (const std::exception&) {
      out.ns = now_ns() - start;
      out.failed = 1;
      last_.clear();
    }
    return out;
  }

  void replay(i64 index, Tracer& tracer, std::int32_t root) override {
    const CsdfGraph& g = work_[pool_.base_of(index)];
    tracer.span(Layer::Key, root, [&] { build_key(g, key_); });
    if (tracer.span(Layer::CacheFind, root, [&] { return cache_.find(key_).has_value(); })) return;
    replay_cold_request(g, ws_, tracer, root);
    if (!last_.empty()) tracer.span(Layer::CacheInsert, root, [&] { cache_.insert(key_, last_[0]); });
  }

  void corrupt_one_reference() override { pool_.refs[0].period += Rational(1); }
  [[nodiscard]] const KIterWorkspace& replay_workspace() const override { return ws_; }

  [[nodiscard]] ContentKey key_of(i64 index) {
    CsdfGraph& g = work_[pool_.base_of(index)];
    pool_.scale_into(g, index, scratch_);
    ContentKey key;
    build_key(g, key);
    return key;
  }

 private:
  ServingPool pool_;
  std::vector<CsdfGraph> work_;  ///< per base: the graph of its latest content
  std::vector<i64> scratch_;

  // Replay state, mirroring the service's caller workspace and result cache.
  KIterWorkspace ws_;
  StripedLruCache<Analysis> cache_{ServiceOptions{}.result_cache_capacity};
  ContentKey key_;
};

// ---- serving_dup -------------------------------------------------------------

/// Batch shape: kNewPerBatch new contents, each sent twice (in-batch
/// twins), and the rest repeats of the new contents of the previous
/// kWindowBatches batches — a window far below the cache capacity, so every
/// repeat is still cached.
constexpr std::size_t kBatch = 80;
constexpr i64 kNewPerBatch = 8;
constexpr i64 kWindowBatches = 16;

class ServingDup final : public Workload {
 public:
  ServingDup(std::uint64_t seed, int workers)
      : seed_(seed), workers_(workers), pool_(make_serving_pool(stream(seed, 2), kDupPool, kDupClass)) {
    requests_.resize(kBatch);
    contents_.resize(kBatch);
    keys_.resize(kBatch);
  }

  [[nodiscard]] std::unique_ptr<ThroughputService> make_service() const override {
    return std::make_unique<ThroughputService>(ServiceOptions{.threads = workers_});
  }

  /// One cache capacity of new contents.
  [[nodiscard]] i64 warmup_calls() const override {
    return static_cast<i64>(ServiceOptions{}.result_cache_capacity) / kNewPerBatch;
  }
  [[nodiscard]] i64 pass_calls() const override {
    return static_cast<i64>(kDupPool) / kNewPerBatch;
  }
  [[nodiscard]] i64 window_passes() const override { return 32; }
  /// Above p90 a batch call's latency is set by vCPU preemption of the pool.
  [[nodiscard]] double tail_cap() const override { return 0.9; }

  CallResult call(ThroughputService& service, i64 index) override {
    plan(index);
    CallResult out;
    out.analyses = static_cast<i64>(kBatch);
    out.new_contents = kNewPerBatch;
    const std::int64_t start = now_ns();
    out.start_ns = start;
    try {
      last_ = service.analyze_batch(requests_);
      out.ns = now_ns() - start;
      for (std::size_t k = 0; k < kBatch; ++k) {
        out.failed += matches(last_[k], pool_.expected(contents_[k])) ? 0 : 1;
      }
    } catch (const std::exception&) {
      out.ns = now_ns() - start;
      out.failed = out.analyses;
      last_.clear();
    }
    return out;
  }

  /// Sequential replay of the pool's order of work: the dispatch pass keys
  /// and looks up every request; each miss is looked up again when a worker
  /// takes it (a late hit once its twin solved) and is otherwise solved and
  /// inserted.
  void replay(i64 /*index*/, Tracer& tracer, std::int32_t root) override {
    misses_.clear();
    for (std::size_t k = 0; k < kBatch; ++k) {
      tracer.span(Layer::Key, root, [&] { build_key(requests_[k].graph, keys_[k]); });
      if (!tracer.span(Layer::CacheFind, root, [&] { return cache_.find(keys_[k]).has_value(); })) {
        misses_.push_back(k);
      }
    }
    for (const std::size_t k : misses_) {
      if (tracer.span(Layer::CacheFind, root, [&] { return cache_.find(keys_[k]).has_value(); })) {
        continue;
      }
      replay_cold_request(requests_[k].graph, ws_, tracer, root);
      if (k < last_.size()) {
        tracer.span(Layer::CacheInsert, root, [&] { cache_.insert(keys_[k], last_[k]); });
      }
    }
  }

  void corrupt_one_reference() override { pool_.refs[0].period += Rational(1); }
  [[nodiscard]] const KIterWorkspace& replay_workspace() const override { return ws_; }

 private:
  /// Fills requests_ with batch `index`: its new contents twice each, then
  /// window repeats, in a seeded shuffled order.
  void plan(i64 index) {
    Rng rng(stream(seed_, 0x5eed0000ULL + static_cast<std::uint64_t>(index)));
    const i64 first_new = index * kNewPerBatch;
    const i64 window_begin = std::max<i64>(0, first_new - kWindowBatches * kNewPerBatch);
    std::size_t k = 0;
    for (i64 j = 0; j < kNewPerBatch; ++j) {
      contents_[k++] = first_new + j;
      contents_[k++] = first_new + j;
    }
    while (k < kBatch) {
      contents_[k++] = first_new == 0 ? rng.uniform(0, kNewPerBatch - 1)
                                      : rng.uniform(window_begin, first_new - 1);
    }
    rng.shuffle(contents_);
    for (std::size_t s = 0; s < kBatch; ++s) {
      AnalysisRequest& req = requests_[s];
      req.graph = pool_.bases[pool_.base_of(contents_[s])];
      pool_.scale_into(req.graph, contents_[s], scratch_);
    }
  }

  std::uint64_t seed_;
  int workers_;
  ServingPool pool_;
  std::vector<AnalysisRequest> requests_;
  std::vector<i64> contents_;
  std::vector<i64> scratch_;

  KIterWorkspace ws_;
  StripedLruCache<Analysis> cache_{ServiceOptions{}.result_cache_capacity};
  std::vector<ContentKey> keys_;
  std::vector<std::size_t> misses_;
};

// ---- dse_sweep ---------------------------------------------------------------

/// Bases per pool, and the two sweeps every request runs on its base.
constexpr std::size_t kDsePool = 96;
constexpr i64 kRayPoints = 64;
constexpr i64 kBufferPoints = 16;

/// The size class of a base's capacity-bounded graph: big enough that the
/// MCRP solve dominates a per-point variant.
constexpr SizeClass kDseClass{120, 200, 10};

/// Affine pieces of every base's period curve along its ray: the ray crosses
/// one region boundary, so the symbolic walk solves two anchors exactly and
/// fills the other points by region evaluation. About four bases in five
/// qualify; the others take up to a dozen anchors and cost up to four times
/// as much, so the few a pool drew would set its tail. The count is read
/// from the reference periods, so the pool does not depend on how the
/// service walks the ray.
constexpr i64 kRayPieces = 2;

/// Maximal runs of consecutive points on one line, taken greedily from the
/// first point: a run's first two points fix the line, and the first point
/// off it starts the next run.
i64 affine_pieces(const std::vector<Expected>& points) {
  i64 pieces = 0;
  std::size_t start = 0;
  while (start < points.size()) {
    ++pieces;
    std::size_t end = start + 2;
    if (end <= points.size()) {
      const Rational step = points[start + 1].period - points[start].period;
      while (end < points.size() && points[end].period - points[end - 1].period == step) ++end;
    }
    start = end;
  }
  return pieces;
}

struct DseBase {
  VariantBatch ray;     ///< execution-time ray over two tasks, symbolic
  VariantBatch buffer;  ///< one reverse buffer's marking, point by point
  std::vector<Expected> ray_refs;
  std::vector<Expected> buffer_refs;
};

/// Cold per-point analyses of every variant: the reference path.
bool cold_references(const VariantBatch& batch, std::vector<Expected>& out) {
  for (const GraphDelta& d : batch.deltas) {
    const Analysis a = analyze_throughput(make_variant(batch.base, d), Method::KIter);
    if (a.outcome != Outcome::Value) return false;
    out.push_back(Expected{a.outcome, a.period});
  }
  return true;
}

std::vector<DseBase> make_dse_pool(std::uint64_t seed) {
  Rng rng(seed);
  RandomCsdfOptions gen;
  gen.min_tasks = 16;
  gen.max_tasks = 16;
  gen.max_phases = 3;
  gen.max_q = 24;
  KIterOptions kiter;
  kiter.want_schedule = false;
  KIterWorkspace ws;
  std::vector<i64> s_values(static_cast<std::size_t>(kRayPoints));
  std::iota(s_values.begin(), s_values.end(), i64{0});
  Quota quota(kDseClass, kDsePool);
  std::vector<DseBase> pool;
  while (pool.size() < kDsePool) {
    const CsdfGraph g = random_csdf(rng, gen);
    CsdfGraph bounded = apply_default_buffer_capacities(g);
    const CsdfGraph s = add_serialization_buffers(bounded);
    const KIterResult r = kiter_throughput(s, compute_repetition_vector(s), kiter, ws);
    const i64 arcs = ws.constraints.graph.arc_count();
    if (r.status != ThroughputStatus::Optimal || !quota.take(arcs)) continue;

    // Both sweeps explore the bounded graph, the one the size class counts.
    DseBase base;
    ExecTimeRay ray;
    const auto a = static_cast<TaskId>(rng.uniform(0, g.task_count() - 1));
    const auto b = static_cast<TaskId>((a + 1 + rng.uniform(0, g.task_count() - 2)) % g.task_count());
    for (const TaskId t : {a, b}) {
      ExecTimeRay::Axis axis;
      axis.task = t;
      axis.base = bounded.task(t).durations;
      axis.step.assign(axis.base.size(), 1);
      ray.axes.push_back(std::move(axis));
    }
    base.ray.base = bounded;
    base.ray.deltas = exec_time_sweep(bounded, ray, s_values);
    base.ray.symbolic = true;

    const auto reverse = static_cast<BufferId>(
        rng.uniform(g.buffer_count(), bounded.buffer_count() - 1));
    const i64 tokens = bounded.buffer(reverse).initial_tokens;
    for (i64 j = 0; j < kBufferPoints; ++j) {
      GraphDelta d;
      d.markings.push_back(GraphDelta::Marking{reverse, tokens + j});
      base.buffer.deltas.push_back(std::move(d));
    }
    base.buffer.base = std::move(bounded);

    // Every point stays live, so warm chains never break.
    if (!cold_references(base.ray, base.ray_refs) || affine_pieces(base.ray_refs) != kRayPieces ||
        !cold_references(base.buffer, base.buffer_refs)) {
      quota.give_back(arcs);
      continue;
    }
    pool.push_back(std::move(base));
  }
  return pool;
}

/// Per request: one symbolic ray sweep and one per-point buffer sweep of
/// the same base, on an inline service.
class DseSweep final : public Workload {
 public:
  explicit DseSweep(std::uint64_t seed) : pool_(make_dse_pool(stream(seed, 3))) {}

  [[nodiscard]] std::unique_ptr<ThroughputService> make_service() const override {
    return std::make_unique<ThroughputService>(ServiceOptions{.threads = 0});
  }

  /// One pass over the pool.
  [[nodiscard]] i64 warmup_calls() const override { return static_cast<i64>(kDsePool); }
  [[nodiscard]] i64 pass_calls() const override { return static_cast<i64>(kDsePool); }
  [[nodiscard]] i64 window_passes() const override { return 2; }
  /// A window of 192 calls leaves ten samples beyond p90 but not beyond p99.
  [[nodiscard]] double tail_cap() const override { return 0.9; }

  CallResult call(ThroughputService& service, i64 index) override {
    const DseBase& base = pool_[static_cast<std::size_t>(index) % pool_.size()];
    CallResult out;
    out.analyses = kRayPoints + kBufferPoints;
    out.new_contents = out.analyses;
    out.ray_variants = kRayPoints;
    const std::int64_t start = now_ns();
    out.start_ns = start;
    try {
      std::vector<Analysis> ray = service.analyze_variants(base.ray);
      std::vector<Analysis> buffer = service.analyze_variants(base.buffer);
      out.ns = now_ns() - start;
      for (std::size_t i = 0; i < ray.size(); ++i) {
        out.failed += matches(ray[i], base.ray_refs[i]) ? 0 : 1;
        out.region_fills += ray[i].rounds == 0 && ray[i].detail.rfind("symbolic region", 0) == 0;
      }
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        out.failed += matches(buffer[i], base.buffer_refs[i]) ? 0 : 1;
      }
      last_ = std::move(ray);
      last_.insert(last_.end(), std::make_move_iterator(buffer.begin()),
                   std::make_move_iterator(buffer.end()));
    } catch (const std::exception&) {
      out.ns = now_ns() - start;
      out.failed = out.analyses;
      last_.clear();
    }
    return out;
  }

  void replay(i64 index, Tracer& tracer, std::int32_t root) override {
    const DseBase& base = pool_[static_cast<std::size_t>(index) % pool_.size()];
    replay_ray(base.ray, tracer, root);
    const Sweep sweep = begin_sweep(base.buffer, tracer, root);
    for (std::size_t i = 0; i < base.buffer.deltas.size(); ++i) replay_variant(sweep, i, tracer, root);
  }

  void corrupt_one_reference() override { pool_[0].ray_refs[0].period += Rational(1); }
  [[nodiscard]] const KIterWorkspace& replay_workspace() const override { return ws_; }

 private:
  /// One analyze_variants call in flight: the serialized base every
  /// variant is derived from.
  struct Sweep {
    const VariantBatch* batch = nullptr;
    CsdfGraph prepared;
  };

  /// Batch start, as the service does it: serialize the base once, copy it
  /// into the worker's variant graph, and break every warm chain.
  Sweep begin_sweep(const VariantBatch& batch, Tracer& tracer, std::int32_t root) {
    Sweep sweep;
    sweep.batch = &batch;
    sweep.prepared =
        tracer.span(Layer::Serialize, root, [&] { return add_serialization_buffers(batch.base); });
    variant_ = sweep.prepared;
    applied_ = -1;
    warm_k_valid_ = false;
    ws_.reset_solver_warm_start();
    return sweep;
  }

  /// The service's run_variant + run_kiter for variant i with warm starts.
  CriticalCycleCert replay_variant(const Sweep& sweep, std::size_t i, Tracer& tracer,
                                   std::int32_t root) {
    const std::vector<GraphDelta>& deltas = sweep.batch->deltas;
    tracer.span(Layer::Delta, root, [&] {
      if (applied_ >= 0) revert_delta(variant_, deltas[static_cast<std::size_t>(applied_)], sweep.prepared);
      apply_delta(variant_, deltas[i]);
    });
    applied_ = static_cast<std::ptrdiff_t>(i);
    KIterOptions kiter;
    kiter.want_schedule = false;
    kiter.mcrp.howard_warm_start = true;
    if (warm_k_valid_) kiter.initial_k = &warm_k_;
    const RepetitionVector rv =
        tracer.span(Layer::Repetition, root, [&] { return compute_repetition_vector(variant_); });
    KIterResult r =
        tracer.span(Layer::Kiter, root, [&] { return kiter_throughput(variant_, rv, kiter, ws_); });
    tracer.kiter_counters(r, ws_.solved.exact_iterations);
    CriticalCycleCert cert;
    if (r.status == ThroughputStatus::Optimal) {
      cert = tracer.span(Layer::Cert, root,
                         [&] { return extract_critical_cycle_cert(ws_.constraints, ws_.solved); });
      warm_k_ = std::move(r.k);
      warm_k_valid_ = true;
    } else {
      warm_k_valid_ = false;
      ws_.reset_solver_warm_start();
    }
    return cert;
  }

  /// The service's symbolic-region walk: solve an anchor, certify how far
  /// along the ray its critical cycle stays maximal, skip to the next.
  void replay_ray(const VariantBatch& batch, Tracer& tracer, std::int32_t root) {
    const Sweep sweep = begin_sweep(batch, tracer, root);
    const std::optional<ExecTimeRay> ray = infer_exec_time_ray(batch.deltas);
    const auto n = static_cast<i64>(batch.deltas.size());
    RegionCertifier certifier;
    std::vector<i64> prev_k;
    bool have_prev = false;
    i64 i = 0;
    while (i < n) {
      const CriticalCycleCert cert = replay_variant(sweep, static_cast<std::size_t>(i), tracer, root);
      if (!ray || cert.empty() || (have_prev && cert.k != prev_k)) {
        have_prev = false;
        ++i;
        continue;
      }
      const i64 end = tracer.span(Layer::Certify, root, [&] {
        certifier.prepare(ws_.constraints, cert, *ray, i);
        return certifier.region_end(n - 1, ws_.mcrp);
      });
      prev_k = cert.k;
      have_prev = true;
      i = end + 1;
    }
  }

  std::vector<DseBase> pool_;

  // Replay state, mirroring the service's caller worker.
  KIterWorkspace ws_;
  CsdfGraph variant_;
  std::ptrdiff_t applied_ = -1;
  std::vector<i64> warm_k_;
  bool warm_k_valid_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, int workers) {
  if (name == "serving_unique") return std::make_unique<ServingUnique>(seed);
  if (name == "serving_dup") return std::make_unique<ServingDup>(seed, workers);
  if (name == "dse_sweep") return std::make_unique<DseSweep>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

ContentKey serving_unique_key(Workload& w, i64 index) {
  return dynamic_cast<ServingUnique&>(w).key_of(index);
}

double serving_dup_share() {
  return static_cast<double>(static_cast<i64>(kBatch) - kNewPerBatch) / static_cast<double>(kBatch);
}

}  // namespace kpbench
