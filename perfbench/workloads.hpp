// The three closed-loop workloads of the ThroughputService benchmark.
//
// A workload owns its seeded inputs and their reference verdicts, both built
// in the constructor (before any clock starts). A run then issues client
// calls by index: calls [0, warmup_calls()) are the fixed warm-up every
// set-up repetition replays on a fresh service, and the timed phase
// continues from warmup_calls() in whole passes of pass_calls() calls.
// Every call's content is a pure function of (seed, index), so a run is
// reproducible and the timed phase never repeats a warm-up request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/service.hpp"

namespace kpbench {

using kp::i64;

class Tracer;

/// One client call as the benchmark saw it.
struct CallResult {
  std::int64_t start_ns = 0;  ///< steady-clock time the service call began
  std::int64_t ns = 0;        ///< wall time of the service call(s)
  i64 analyses = 0;           ///< Analysis objects returned
  i64 failed = 0;             ///< analyses whose verdict differs from the reference
  i64 new_contents = 0;       ///< distinct contents this call sent for the first time
  i64 ray_variants = 0;       ///< variants requested through symbolic ray sweeps
  i64 region_fills = 0;       ///< of those, variants served by region evaluation
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// A fresh service configured the way this workload's client uses it.
  [[nodiscard]] virtual std::unique_ptr<kp::ThroughputService> make_service() const = 0;

  [[nodiscard]] virtual i64 warmup_calls() const = 0;
  [[nodiscard]] virtual i64 pass_calls() const = 0;
  /// Passes per measurement window: about half a second of calls.
  [[nodiscard]] virtual i64 window_passes() const = 0;

  /// The highest call-latency quantile lat_tail_ms may report: the tail
  /// ladder stops here even when more samples would allow a higher rung.
  [[nodiscard]] virtual double tail_cap() const = 0;

  /// Issues call `index` on `service`, times it and checks every returned
  /// analysis against its reference. Exceptions count as failures.
  virtual CallResult call(kp::ThroughputService& service, i64 index) = 0;

  /// Re-runs the public layer functions the service ran for the call just
  /// issued with the same index, on benchmark-owned state, in the service's
  /// order, recording one span per function under `root`.
  virtual void replay(i64 index, Tracer& tracer, std::int32_t root) = 0;

  /// The workspace replay() solves on (its constraint-cache counters give
  /// the share of patched rounds).
  [[nodiscard]] virtual const kp::KIterWorkspace& replay_workspace() const = 0;

  /// The analyses the last call returned.
  [[nodiscard]] const std::vector<kp::Analysis>& last_results() const { return last_; }

  /// Test hook: shifts one reference so the next matching request fails.
  virtual void corrupt_one_reference() = 0;

 protected:
  std::vector<kp::Analysis> last_;
};

/// Builds the named workload ("serving_unique", "serving_dup" or
/// "dse_sweep"); throws std::invalid_argument for any other name.
/// `workers` is the pool size serving_dup uses (the others run inline).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                                      int workers);

/// serving_unique's content key of call `index`, for the self-test that no
/// key repeats within a run.
[[nodiscard]] kp::ContentKey serving_unique_key(Workload& w, i64 index);

/// serving_dup's constructed duplicate share (repeats / requests per batch).
[[nodiscard]] double serving_dup_share();

}  // namespace kpbench
