// Symbolic throughput regions (the parametric-SADF idea of Skelin/Geilen,
// arXiv:1404.0089, specialized to execution-time sweeps): inside a region
// of execution-time space where one critical cycle stays maximal, the
// K-periodic period is the closed-form rational
//
//   Ω(τ) = Σ_{(t,p) on cycle} count(t,p) · d_t[p]  /  H(cycle)
//
// because every constraint-graph arc's L payload is the duration of its
// producing (task, phase) node while every H payload depends only on rates,
// marking, q and K — never on durations. Along an affine ray
// τ(s) = τ0 + s·dir, every elementary circuit's reweighted weight
//
//   w_c(s) = L_c(s) − Ω(s)·H_c
//
// is AFFINE in s (L_c and the cert's numerator are affine, H_c constant),
// so the cert cycle stays maximal across a whole segment of samples iff no
// circuit has positive weight at the segment's two endpoints — one exact
// positive-cycle check per endpoint (has_positive_cycle: the MCRP solver's
// Bellman–Ford kernel on scaled-integer labels) certifies every sample
// between them. RegionCertifier exploits this: a region's right edge is
// found by a walk down from the end of the ray that jumps from each failed
// check straight to the point where the circuit that failed it crosses the
// cert (about two checks per region on a sweep's curves), and every
// in-region sample's period is an O(|coeffs|) rational evaluation — no
// K-iteration, no MCRP solve.
//
// Optimality transfers across the region: Theorem 4's test depends only on
// K and the critical circuit's task set, both constant while the cert
// holds — so a cert extracted from an exact Optimal solve stays the exact
// throughput (not merely the fixed-K bound) at every certified sample, and
// the evaluated Rationals are bit-identical to cold per-point solves.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/constraints.hpp"
#include "mcrp/cycle_ratio.hpp"
#include "model/transform.hpp"

namespace kp {

/// The binding critical cycle of an exact solve, as a symbolic ratio in the
/// task execution times. Extracted from a solved (ConstraintGraph,
/// McrpResult) pair; meaningful while that cycle stays maximal.
struct CriticalCycleCert {
  /// One numerator term: `count` arcs of the cycle carry the duration of
  /// phase `phase` (1-based) of `task` as their L payload.
  struct Coeff {
    TaskId task = -1;
    std::int32_t phase = 1;
    i64 count = 0;

    friend bool operator==(const Coeff&, const Coeff&) = default;
  };

  std::vector<Coeff> coeffs;  ///< sorted by (task, phase)
  std::vector<TaskId> tasks;  ///< distinct tasks on the cycle, first-seen order
  std::vector<i64> k;         ///< periodicity vector of the certifying graph
  i64 cycle_cost = 0;         ///< L(c) at the solved point = Σ count·d
  Rational cycle_time;        ///< H(c) > 0; constant along exec-time rays
  Rational ratio;             ///< Ω at the solved point = cycle_cost / cycle_time

  [[nodiscard]] bool empty() const noexcept { return coeffs.empty(); }

  /// Ω(τ) at g's current durations. O(|coeffs|).
  [[nodiscard]] Rational evaluate(const CsdfGraph& g) const;

  /// "(2·d(fft,2) + d(src)) / 3/2" with names from `g`; the phase index is
  /// omitted for single-phase tasks. Empty string for an empty cert.
  [[nodiscard]] std::string describe(const CsdfGraph& g) const;
};

/// Reads the cert out of an exact Optimal solve with positive ratio;
/// returns an empty cert otherwise (no cycle, zero ratio, infeasibility
/// witness). `cg` must be the graph `solved` was solved on. `seen` is
/// per-task scratch (ConstraintGraph::tasks_on_circuit_into), so the cert's
/// three vectors are the only allocations; the two-argument form makes its
/// own.
[[nodiscard]] CriticalCycleCert extract_critical_cycle_cert(const ConstraintGraph& cg,
                                                            const McrpResult& solved,
                                                            std::vector<std::int8_t>& seen);
[[nodiscard]] CriticalCycleCert extract_critical_cycle_cert(const ConstraintGraph& cg,
                                                            const McrpResult& solved);

/// Certifies how far along an affine exec-time ray a cert stays the exact
/// optimum. Anchored at a solved sample: `cg` must be the constraint graph
/// the cert was extracted from, with L payloads at ray parameter
/// `s_anchor`, and its layout must stay untouched while the certifier is
/// queried (the positive-cycle checks reuse the anchor solve's cyclic core
/// via the topology stamp). Queries additionally assume every probed sample
/// has nonnegative durations on the ray — infer_exec_time_ray guarantees
/// this for service sweeps.
class RegionCertifier {
 public:
  /// O(arcs): per-arc dL/ds along the ray plus the cert numerator's slope.
  /// Axis vectors must be sized φ(task) (true for any ray whose deltas
  /// applied cleanly to the graph `cg` encodes).
  void prepare(const ConstraintGraph& cg, const CriticalCycleCert& cert, const ExecTimeRay& ray,
               i64 s_anchor);

  /// Ω(s) predicted by the cert: (cycle_cost + (s − s_anchor)·slope) / H.
  [[nodiscard]] Rational ratio_at(i64 s) const;

  /// The cert numerator L(c) at sample s (ratio_at's numerator before
  /// normalization) — what cycle_cost would read had the cert been
  /// extracted at s.
  [[nodiscard]] i64 numerator_at(i64 s) const;

  /// True iff the cert is the exact max cycle ratio at sample s: the
  /// predicted numerator stays positive (Ω → 0 is the Unbounded boundary)
  /// and no circuit has positive weight under w(e) = L(s) − Ω(s)·H — one
  /// has_positive_cycle call on the anchor's cyclic core.
  [[nodiscard]] bool valid_at(i64 s, McrpScratch& mcrp);

  /// Largest s in [s_anchor, s_last] with valid_at(s). Probes s_last first
  /// (whole-range regions cost one check), then walks down, each failed
  /// check naming the samples it rules out:
  ///   * numerator C + (s−a)·σ ≤ 0 at the probe: σ < 0, and no sample past
  ///     a + ⌊(C−1)/(−σ)⌋ keeps it positive;
  ///   * otherwise the positive circuit c′ has_positive_cycle found:
  ///     g(s) = L_c′(s)·H_c − L_c(s)·H_c′ is affine, ≤ 0 at the anchor a
  ///     and > 0 at the probe, so c′ is positive at every sample past
  ///     a + ⌊−g(a)/g′⌋.
  /// The next probe is the largest sample not ruled out; the first that
  /// passes is the end. Validity is an interval of samples containing the
  /// anchor (the period along the ray is a maximum of affine functions,
  /// hence convex), so this is exactly the sample a bisection over
  /// [s_anchor, s_last] returns. When the crossing arithmetic overflows,
  /// the walk takes a bisection step instead; a crossing with g′ ≤ 0 or
  /// one that makes no progress is a SolverError (invariant breach).
  [[nodiscard]] i64 region_end(i64 s_last, McrpScratch& mcrp);

  /// valid_at calls the last region_end made (its first probe included).
  [[nodiscard]] int last_checks() const noexcept { return checks_; }

 private:
  /// After valid_at(hi) failed (its circuit, if any, still in
  /// mcrp.bf_cycle): the offset from the anchor of the largest sample that
  /// failure does not rule out; nullopt when the arithmetic overflows.
  [[nodiscard]] std::optional<i128> crossing_offset(i64 hi, const McrpScratch& mcrp) const;

  const ConstraintGraph* cg_ = nullptr;
  const CriticalCycleCert* cert_ = nullptr;
  i64 s_anchor_ = 0;
  i64 num_slope_ = 0;              // d(cert numerator)/ds
  std::vector<i64> arc_slope_;     // per arc: dL/ds
  std::vector<i64> costs_;         // per arc: L(s) scratch
  int checks_ = 0;                 // valid_at calls of the last region_end
};

}  // namespace kp
