// In-memory span recorder for the traced run.
//
// Each client call gets a root span (the service call). The workload then
// replays the public layer functions the service ran for that call and
// records one child span per function. Spans are stored up to a fixed cap
// and written out as TSV when the run ends; aggregates (count and total
// time per layer, the service call's self time, K-Iter counters) cover
// every call, stored or not.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/kiter.hpp"

namespace kpbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The public functions the replay times, named after their layer.
enum class Layer : std::int32_t {
  ApiCall,     ///< the service call itself (root span)
  Key,         ///< append_content_snapshot + ContentKey::finalize
  CacheFind,   ///< StripedLruCache::find
  CacheInsert, ///< StripedLruCache::insert
  Serialize,   ///< add_serialization_buffers
  Repetition,  ///< compute_repetition_vector
  Delta,       ///< revert_delta + apply_delta
  Kiter,       ///< kiter_throughput
  Cert,        ///< extract_critical_cycle_cert
  Certify,     ///< RegionCertifier::prepare + region_end
  Count,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::ApiCall;
  std::int32_t parent = -1;  ///< index of the parent span, -1 for a root
  std::int64_t request = 0;  ///< client call index
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t max_spans) : max_spans_(max_spans) { spans_.reserve(max_spans); }

  /// True once the span store is full; the caller stops issuing traced calls.
  [[nodiscard]] bool full() const { return spans_.size() >= max_spans_; }

  /// Records the service-call span of `request` and returns its index.
  std::int32_t root(std::int64_t request, std::int64_t start_ns, std::int64_t end_ns);

  /// Runs `fn` inside a child span of `parent` and returns its result.
  template <typename Fn>
  decltype(auto) span(Layer layer, std::int32_t parent, Fn&& fn) {
    const std::int64_t start = now_ns();
    struct Close {
      Tracer* self;
      Layer layer;
      std::int32_t parent;
      std::int64_t start;
      ~Close() { self->close(layer, parent, start, now_ns()); }
    } close{this, layer, parent, start};
    return std::forward<Fn>(fn)();
  }

  /// Counters read at the kiter_throughput boundary of one replayed analysis.
  void kiter_counters(const kp::KIterResult& r, int exact_iters);

  /// Writes every stored span as one TSV line:
  /// id, parent, request, layer, start_ns, end_ns (starts relative to the first span).
  void write(const std::string& path) const;

  struct LayerTotals {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
  };
  [[nodiscard]] const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Mean µs per occurrence of `layer`; 0 when it never ran.
  [[nodiscard]] double mean_us(Layer layer) const;

  /// Service-call durations (µs) and their self times: the call minus the
  /// replayed spans of the same request.
  [[nodiscard]] const std::vector<double>& call_us() const { return call_us_; }
  [[nodiscard]] double mean_self_us() const;

  // K-Iter counters summed over replayed analyses.
  std::int64_t kiter_runs = 0;
  double build_ms = 0.0;
  double solve_ms = 0.0;
  std::int64_t rounds = 0;
  std::int64_t howard_iterations = 0;
  std::int64_t exact_iterations = 0;

 private:
  void close(Layer layer, std::int32_t parent, std::int64_t start, std::int64_t end);

  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::int64_t request_ = 0;  ///< request of the most recent root
  std::array<LayerTotals, static_cast<std::size_t>(Layer::Count)> totals_{};
  std::vector<double> call_us_;
  std::vector<double> self_us_;
};

}  // namespace kpbench
