// Throughput analysis API — request/response types and the one-shot entry
// point. The batch, multi-threaded surface lives in api/service.hpp
// (ThroughputService); analyze_throughput below is a thin wrapper over a
// single-worker service for callers that analyze one graph at a time.
//
// Four engines, the ones the paper compares (Table 1 / Table 2):
//   KIter             — the paper's contribution (exact, fast);
//   Periodic          — the 1-periodic approximation [4] (K = 1);
//   SymbolicExecution — exact state-space baseline [16]/[8];
//   Expansion         — HSDF-expansion baseline [10]/[6] (SDF only).
//
// All methods run on the same semantics: by default tasks are serialized
// (one phase at a time) by an implicit one-token self-buffer on every task
// that has none, matching SDF3 practice. K-Iter gets these buffers as extra
// constraint-generator input, with no copy of the graph; the other methods
// analyze a copy that holds them. Turn serialize_tasks off to analyze with
// unlimited auto-concurrency.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/kiter.hpp"
#include "core/regions.hpp"
#include "expansion/hsdf.hpp"
#include "model/csdf.hpp"
#include "sim/selftimed.hpp"

namespace kp {

enum class Method { KIter, Periodic, SymbolicExecution, Expansion };

[[nodiscard]] std::string method_name(Method m);

/// Inverse of method_name, for parsing method selection from argv: accepts
/// the display names plus the usual aliases ("kiter", "k-iter", "periodic",
/// "1-periodic", "symbolic", "sim", "expansion", "hsdf"), ASCII
/// case-insensitively. Returns nullopt for anything else.
[[nodiscard]] std::optional<Method> method_from_name(std::string_view name);

/// How trustworthy the reported value is.
enum class Quality {
  Exact,            ///< the maximum throughput, proven
  AchievableBound,  ///< a feasible schedule's throughput (lower bound)
  None,             ///< no value (deadlock / no solution / budget)
};

enum class Outcome {
  Value,       ///< `period`/`throughput` are set (see quality)
  NoSolution,  ///< the method's schedule class is empty (the paper's "N/S")
  Deadlock,    ///< throughput 0, proven
  Unbounded,   ///< no circuit bounds the rate
  Budget,      ///< resource budget exhausted / deadline / cancelled
};

struct AnalysisOptions {
  bool serialize_tasks = true;
  KIterOptions kiter{};
  SimOptions sim{};
  i64 expansion_max_nodes = 2000000;
  i64 expansion_max_arcs = 20000000;
};

struct Analysis {
  Method method = Method::KIter;
  Outcome outcome = Outcome::Budget;
  Quality quality = Quality::None;
  Rational period;      // Ω_G, valid when outcome == Value
  Rational throughput;  // 1/Ω_G
  double elapsed_ms = 0.0;  // execution time on the serving worker
  std::string detail;  // human-readable extras (final K, state counts, ...)

  // Solver-effort observability (KIter and Periodic fill these; other
  // methods leave zeros). `rounds` counts completed K-iteration rounds —
  // warm-started variants typically report 1 where a cold run reports
  // several; the values above are identical either way. mcrp_iterations
  // sums MCRP candidate-circuit improvements across all rounds;
  // build/solve split the round wall-clock into constraint generation vs
  // MCRP solve.
  int rounds = 0;
  i64 mcrp_iterations = 0;
  double build_ms = 0.0;
  double solve_ms = 0.0;

  // Why the value binds (exact KIter values with positive period only;
  // empty otherwise): the final round's critical cycle as a symbolic ratio
  // in the execution times — Ω = Σ count·d(task,phase) / cycle_time (see
  // core/regions.hpp). Task/buffer ids refer to the analyzed graph. Which
  // co-critical cycle is reported may differ between warm and cold runs;
  // the evaluated ratio is identical. Variants served symbolically from a
  // region carry the ANCHOR's cert re-anchored at their own ratio.
  CriticalCycleCert critical_cycle;

  // Service metadata, filled by ThroughputService (defaults for plain
  // one-shot calls):
  i64 request_id = -1;    ///< batch index, or the ticket submit() returned
  int worker_id = -1;     ///< pool worker that served the request
  double queue_ms = 0.0;  ///< wait between enqueue and execution start
};

/// One-shot convenience: serves a single request through a single-worker,
/// inline ThroughputService. Callers analyzing many graphs back to back
/// should hold a ThroughputService instead — its workers keep their
/// KIterWorkspace warm across analyses (api/service.hpp).
[[nodiscard]] Analysis analyze_throughput(const CsdfGraph& g, Method method,
                                          const AnalysisOptions& options = {});

}  // namespace kp
