// Shared helpers for the table-reproduction and hot-path benches.
#pragma once

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "model/stats.hpp"
#include "util/stopwatch.hpp"

namespace kp::bench {

/// Times fn as min-of-`repeats`, batching enough iterations per repeat that
/// the timed section is >= ~0.5 ms — sub-10µs sections are otherwise at the
/// mercy of scheduler/IRQ noise, which would make the bench_check gates
/// flaky. Returns per-iteration milliseconds.
template <typename Fn>
double min_ms_of(int repeats, Fn&& fn) {
  Stopwatch probe;
  fn();
  const double single_ms = probe.elapsed_ms();
  const int iters = std::max(1, static_cast<int>(0.5 / std::max(single_ms, 1e-6)));
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch clock;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, clock.elapsed_ms() / iters);
  }
  return best;
}

/// gcd-structured chain: t0 fans g tokens into a rate-1 pipeline of
/// `tasks - 1` serialized stages, closed back to t0 (q = [1, g, ..., g]).
/// The K-Iter warm-round shape at scale — bumping ONE mid-chain task's K
/// touches 3 of the 2·tasks - 1 buffers — and the DSE sweep shape: editing
/// one mid-chain task's execution time touches the L payloads of its 3
/// incident buffers and re-enumerates nothing.
inline CsdfGraph gcd_chain(std::int32_t tasks, i64 g) {
  CsdfGraph out("gcd-chain-" + std::to_string(tasks) + "-" + std::to_string(g));
  std::vector<TaskId> t;
  t.push_back(out.add_task("t0", 3));
  for (std::int32_t i = 1; i < tasks; ++i) {
    t.push_back(out.add_task(std::string("t").append(std::to_string(i)), 1 + i % 3));
  }
  out.add_buffer("b0", t[0], t[1], g, 1, 0);
  for (std::int32_t i = 1; i + 1 < tasks; ++i) {
    out.add_buffer(std::string("b").append(std::to_string(i)), t[static_cast<std::size_t>(i)],
                   t[static_cast<std::size_t>(i) + 1], 1, 1, 0);
  }
  out.add_buffer("back", t.back(), t[0], 1, g, g);
  for (std::int32_t i = 1; i < tasks; ++i) {
    out.add_buffer(std::string("s").append(std::to_string(i)), t[static_cast<std::size_t>(i)],
                   t[static_cast<std::size_t>(i)], 1, 1, 1);
  }
  return out;
}

/// min/avg/max accumulator for the size columns of Table 1.
struct MinAvgMax {
  double min = 1e300;
  double max = -1e300;
  double sum = 0;
  i64 count = 0;

  void add(double v) {
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    ++count;
  }

  [[nodiscard]] std::string to_string() const {
    if (count == 0) return "-";
    auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.0f", v);
      return std::string(buf);
    };
    return fmt(min) + "/" + fmt(sum / static_cast<double>(count)) + "/" + fmt(max);
  }
};

/// One method's aggregate over a category: average time over solved
/// instances, plus the solved count.
struct MethodAggregate {
  double total_ms = 0;
  int solved = 0;
  int attempted = 0;

  void add(const Analysis& a) {
    ++attempted;
    if (a.outcome == Outcome::Value || a.outcome == Outcome::Deadlock ||
        a.outcome == Outcome::Unbounded) {
      ++solved;
      total_ms += a.elapsed_ms;
    }
  }

  [[nodiscard]] std::string to_string() const {
    if (solved == 0) return "no result";
    std::string out = format_duration_ms(total_ms / solved);
    if (solved != attempted) {
      out += " (" + std::to_string(solved) + "/" + std::to_string(attempted) + ")";
    }
    return out;
  }
};

/// Renders "100%" / "98.2%" given an achieved and an optimal throughput;
/// "??" when the optimum is unknown.
inline std::string optimality_pct(const Analysis& method, const Analysis& exact) {
  if (method.outcome == Outcome::NoSolution) return "N/S";
  if (method.outcome != Outcome::Value) return "-";
  if (exact.outcome != Outcome::Value || exact.quality != Quality::Exact) return "??%";
  const double pct = 100.0 * (method.throughput / exact.throughput).to_double();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g%%", pct);
  return buf;
}

inline std::string time_or_dash(const Analysis& a) {
  return format_duration_ms(a.elapsed_ms);
}

}  // namespace kp::bench
