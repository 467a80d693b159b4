// Log-linear latency histogram, snapshot-readable while hot.
//
// record_ms is one relaxed atomic increment, so workers can stamp every
// request without a lock and ThroughputService::stats() can read a
// consistent-enough snapshot without stopping the pool. Buckets are over
// microseconds: bucket 0 holds < 1 us, and every octave [2^o, 2^(o+1)) us
// above it is split into kSubBuckets equal-width sub-buckets, so bucket
// 1 + o·8 + s holds [2^o·(1 + s/8), 2^o·(1 + (s+1)/8)) us. The index is the
// double's exponent and top three mantissa bits, read off its bit pattern.
// 44 octaves cover 1 us to ~200 days, far past any request this service
// serves. Percentiles are answered from a Snapshot: the reported value is
// the upper edge of the bucket where the cumulative count crosses the rank,
// so it never under-reports (the right bias for latency SLOs) and
// over-reports by at most 12.5%, the widest bucket's upper/lower ratio.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

namespace kp {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kOctaves = 44;
  static constexpr int kBuckets = 1 + kOctaves * kSubBuckets;

  void record_ms(double ms) noexcept {
    buckets_[static_cast<std::size_t>(bucket_of(ms))].fetch_add(1, std::memory_order_relaxed);
  }

  /// A point-in-time copy of the bucket counts. Counts recorded while the
  /// copy is in progress may or may not be included (each bucket is read
  /// atomically); totals are therefore approximate only while the pool is
  /// actively recording, exact once it is idle.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};

    [[nodiscard]] std::uint64_t total() const noexcept {
      std::uint64_t t = 0;
      for (const std::uint64_t c : counts) t += c;
      return t;
    }

    /// Upper-bound latency (ms) at quantile q in [0, 1]; 0 when empty.
    [[nodiscard]] double percentile_ms(double q) const noexcept {
      const std::uint64_t n = total();
      if (n == 0) return 0.0;
      if (q < 0.0) q = 0.0;
      if (q > 1.0) q = 1.0;
      // rank in 1..n: the smallest bucket whose cumulative count reaches it.
      const std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
      std::uint64_t cum = 0;
      for (int i = 0; i < kBuckets; ++i) {
        cum += counts[static_cast<std::size_t>(i)];
        if (cum >= rank && cum > 0) return bucket_upper_us(i) / 1000.0;
      }
      return bucket_upper_us(kBuckets - 1) / 1000.0;
    }
  };

  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot s;
    for (int i = 0; i < kBuckets; ++i) s.counts[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    return s;
  }

  /// Bucket index for a latency in milliseconds (exposed for tests).
  [[nodiscard]] static int bucket_of(double ms) noexcept {
    const double us = ms * 1000.0;
    if (!(us >= 1.0)) return 0;  // also NaN
    // IEEE-754: biased exponent (1023 at 1 us), then the mantissa.
    const auto bits = std::bit_cast<std::uint64_t>(us);
    const auto index = static_cast<std::int64_t>(bits >> (52 - kSubBits)) -
                       (std::int64_t{1023} << kSubBits) + 1;
    return index < kBuckets ? static_cast<int>(index) : kBuckets - 1;
  }

  /// Upper edge (exclusive, in us) of bucket i: 1, then 1.125, 1.25, ...,
  /// 2, 2.25, ... (tests/json).
  [[nodiscard]] static double bucket_upper_us(int i) noexcept {
    if (i <= 0) return 1.0;
    const int octave = (i - 1) / kSubBuckets;
    const int sub = (i - 1) % kSubBuckets;
    return std::ldexp(static_cast<double>(kSubBuckets + sub + 1), octave - kSubBits);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

}  // namespace kp
