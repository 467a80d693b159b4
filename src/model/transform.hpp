// Model-to-model transformations.
//
// * serialization_buffers_into / add_serialization_buffers — make task
//   iterations non-reentrant by adding a one-token self-buffer per task
//   (SDF3's "disable auto-concurrency"). All analyses in this library
//   operate on the graph as given. The façade gives K-Iter these buffers as
//   extra constraint-generator input (serialization_buffers_into, no graph
//   copy) and the other methods a serialized copy (add_serialization_buffers),
//   so every method shares one semantics.
// * apply_buffer_capacities — model bounded buffers by reverse arcs, the
//   transformation the paper's "fixed buffer size" rows rely on.
// * expand_phases — the §3.2 duplication G̃ of the phase vectors (K_t copies
//   per task). The constraint generator performs this arithmetically and
//   never materializes G̃; this explicit version exists so tests can verify
//   the two agree.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "model/csdf.hpp"

namespace kp {

/// Writes the serialization self-buffers of g into the front of `out` and
/// returns them: one per task that has no self-buffer, in ascending task
/// order, each with unit rates on every phase, totals and cumulative sums
/// filled in, and a single initial token. Names are left empty. `out` is
/// scratch: its elements are reused and never shrunk away, so elements
/// past the returned span are left over from larger graphs, and refilling
/// it for a graph no larger than any earlier one allocates nothing. The
/// resulting execution semantics: one phase of a task at a time,
/// iterations in order. A unit self-loop leaves the repetition vector and
/// the consistency verdict of g unchanged.
[[nodiscard]] std::span<const Buffer> serialization_buffers_into(const CsdfGraph& g,
                                                         std::vector<Buffer>& out);

/// Returns a copy of g with the buffers of serialization_buffers_into
/// appended in the same order, named "serial:<task>".
[[nodiscard]] CsdfGraph add_serialization_buffers(const CsdfGraph& g);

/// Returns a copy of g where buffer i is given capacity `capacities[i]` by
/// adding a reverse buffer: the producer claims space before writing (its
/// production vector becomes the reverse arc's consumption) and the consumer
/// releases space when it finishes reading. Requires capacities[i] >=
/// M0(buffer i); a capacity < 0 means "unbounded" (no reverse arc).
/// Self-loop buffers are never given reverse arcs (they are already bounded
/// by their own marking).
[[nodiscard]] CsdfGraph apply_buffer_capacities(const CsdfGraph& g,
                                                const std::vector<i64>& capacities);

/// Uniform convenience: every non-self-loop buffer gets capacity
/// max(M0, ceil(factor_num/factor_den * minimal_feasible_estimate)), where
/// the estimate is max(i_b + o_b, M0) — a standard safe starting point for
/// throughput/buffer trade-off studies.
[[nodiscard]] CsdfGraph apply_default_buffer_capacities(const CsdfGraph& g, i64 factor_num = 2,
                                                        i64 factor_den = 1);

/// §3.2: duplicates the adjacent vectors of every task t K_t times
/// (phases, durations, productions, consumptions); markings unchanged.
/// The result has phi~(t) = K_t * phi(t).
[[nodiscard]] CsdfGraph expand_phases(const CsdfGraph& g, const std::vector<i64>& k);

// ---- parametric variants (design-space exploration) -------------------------
//
// A DSE batch evaluates thousands of near-identical variants of one base
// graph: one actor's execution time, one buffer's marking, or one buffer's
// rate vectors perturbed per point. GraphDelta is the difference object the
// variant API (ThroughputService::analyze_variants) ships instead of whole
// graphs — it names only the touched knobs, so a worker can revert the
// previous variant and apply the next one in O(delta) without copying the
// graph, and the content-keyed constraint cache (core/constraints.hpp) sees
// exactly the fields that changed.

/// One variant = the base graph with these edits applied. Ids refer to the
/// base graph; every edit must keep the graph's shape (phase counts,
/// endpoints) — structural changes mean a new base, not a delta.
struct GraphDelta {
  struct ExecTime {
    TaskId task = -1;
    std::vector<i64> durations;  ///< phi(task) entries, each >= 0
  };
  struct Marking {
    BufferId buffer = -1;
    i64 initial_tokens = 0;  ///< >= 0
  };
  struct Rates {
    BufferId buffer = -1;
    std::vector<i64> prod;  ///< phi(src) entries
    std::vector<i64> cons;  ///< phi(dst) entries
  };

  std::vector<ExecTime> exec_times;
  std::vector<Marking> markings;
  std::vector<Rates> rates;

  [[nodiscard]] bool empty() const noexcept {
    return exec_times.empty() && markings.empty() && rates.empty();
  }
};

/// Applies `d` to `g` in place (throws ModelError on bad ids/sizes/values;
/// `g` may then hold a prefix of the edits — revert against the base to
/// recover). Error messages name the offending edit's position and field,
/// e.g. "GraphDelta.exec_times[2] (task 5): ...". Consistency is not
/// re-checked here: a rates edit may make the graph inconsistent, which the
/// analyses report per request.
void apply_delta(CsdfGraph& g, const GraphDelta& d);

/// Checks that every edit in `d` names a task/buffer id `base` has, with the
/// same positional error messages apply_delta produces. Cheap (no graph
/// mutation): the service layer runs this before dispatching a batch so a
/// bad id is reported up front, against the BASE graph, and never against
/// the serialization-augmented copy a non-K-Iter batch works on.
/// Value/shape validity (vector sizes, negative values) is still only
/// checked on apply.
void validate_delta_targets(const CsdfGraph& base, const GraphDelta& d);

/// Restores the base values of every field `d` names, turning a variant
/// back into `base` (g must be base + d, or at least agree with base
/// everywhere outside d). The revert+apply pair is what lets one worker
/// graph serve a whole variant sweep without per-variant copies.
void revert_delta(CsdfGraph& g, const GraphDelta& d, const CsdfGraph& base);

/// Copy-then-apply convenience (the cold-oracle path of the variant tests).
[[nodiscard]] CsdfGraph make_variant(const CsdfGraph& base, const GraphDelta& d);

/// One delta per value: every phase of `task` gets duration `value` — the
/// classic "sweep one actor's execution time" DSE axis.
[[nodiscard]] std::vector<GraphDelta> exec_time_sweep(const CsdfGraph& base, TaskId task,
                                                      std::span<const i64> values);

/// An affine execution-time ray τ(s) = base + s·step over one or more tasks
/// — the DVFS-style sweep axis (e.g. several actors on one voltage island
/// scaling together, possibly with different per-phase slopes). Tasks not
/// named by an axis keep their graph durations at every s.
struct ExecTimeRay {
  struct Axis {
    TaskId task = -1;
    std::vector<i64> base;  ///< phi(task) entries: durations at s = 0
    std::vector<i64> step;  ///< phi(task) entries, any sign: d(duration)/ds
  };
  std::vector<Axis> axes;

  [[nodiscard]] bool empty() const noexcept { return axes.empty(); }
};

/// One delta per sample: each axis task's durations set to base + s·step.
/// Throws ModelError when an axis names a missing task, has vectors of the
/// wrong size, names a task twice, or produces a negative duration at some
/// sample — generated sweeps are valid by construction.
[[nodiscard]] std::vector<GraphDelta> exec_time_sweep(const CsdfGraph& base,
                                                      const ExecTimeRay& ray,
                                                      std::span<const i64> s_values);

/// Recognizes a delta sequence as an affine exec-time ray with s = the
/// delta's index: exec-time-only deltas, identical task lists, and every
/// duration vector equal to delta0 + index·(delta1 − delta0), all values
/// nonnegative. Returns nullopt otherwise (also for fewer than 2 deltas, or
/// a task edited twice in one delta). This is the gate for the service's
/// symbolic-region mode: sweeps it accepts are exactly the ones whose
/// constraint-graph L payloads move affinely with the index.
[[nodiscard]] std::optional<ExecTimeRay> infer_exec_time_ray(std::span<const GraphDelta> deltas);

}  // namespace kp
