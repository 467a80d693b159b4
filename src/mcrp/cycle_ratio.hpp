// Exact Maximum Cost-to-time Ratio solver (§3.3).
//
// Algorithm: candidate-circuit improvement. Maintain a lower bound λ (the
// exact ratio of the best circuit found so far, initially 0). At each step
// search for a circuit with positive weight under w_λ(e) = L(e) - λ·H(e).
// A found circuit either improves λ to its exact ratio, or — when H(c) <= 0
// — witnesses that no positive period satisfies the constraint system
// (Infeasible). When no positive circuit remains, λ is the exact optimum and
// the last improving circuit is critical.
//
// Positive-cycle kernel: one queue-based Bellman–Ford relaxation with
// Tarjan's subtree disassembly (Cherkassky & Goldberg, "Negative-cycle
// detection algorithms", Math. Programming 1999). Every node starts as a
// root at its start label. The parent pointers form a forest kept as one
// preorder list; before a node's label improves, its subtree leaves the
// forest, and an improvement whose source lies in that subtree closes a
// positive circuit, which is reported at once. Every label is thus its
// root's start label plus the weight of a simple path. Labels are scaled
// integers: with M a common multiple of the H denominators over the cyclic
// core and λ = p/q, an arc weighs W(e) = L(e)·q·M - p·T(e) with
// T(e) = H(e)·M, exactly (q·M)·w_λ(e), so every comparison matches a
// relaxation on rationals. The kernel is one template run at three label
// widths, chosen per call from the input's magnitudes, each with n+2
// headroom so that no label sum from zero start labels can wrap: i64 when
// one bound per call, B = max|L|·q·M + |p|·max|T| <= INT64_MAX/(n+2),
// covers every W (the weight pass is then unchecked machine arithmetic);
// else i128, with each W checked against the i128 headroom; else, when M or
// some W does not fit there, Rational labels. From zero start labels every
// width visits the same arcs in the same order and reports the same
// circuit.
//
// Kept labels: whether a positive circuit exists does not depend on the
// start labels, only which one a "yes" names does. The scratch keeps the
// i64 labels of the last kernel call under reuse (a warm solve or a
// has_positive_cycle check) that answered "no", with their q·M. A later i64
// call under reuse at the same q·M and node count starts from them when
// the warm headroom max|d0| + (n+1)·B <= INT64_MAX holds for their largest
// label d0 (labels only rise, so over a long sweep they drift upward; a
// call that fails the rule starts from zero and its "no" replaces them). It
// queues only the sources of the arcs those labels violate, which on a
// neighbouring point of a sweep are few. A "no" keeps its labels; a "yes"
// is re-run from zero labels, so λ, every circuit and both iteration counts
// are those of zero-start calls. i128 and Rational calls always start from
// zero and leave the kept labels alone; a solve without reuse drops them.
//
// The scale M is derived as the lcm of the cyclic H denominators and then
// kept per denominator: the scratch remembers, per cyclic arc, the H it was
// scaled from and M/den. A payload rewrite that keeps the topology
// (BivaluedGraph::set_time) leaves an arc with unchanged H as it is,
// re-multiplies one whose denominator stayed by its kept factor, and gives
// a new denominator that divides M a fresh factor; only a denominator that
// does not divide M, a T(e) that overflows, or a topology change re-derives
// M. A kept M can exceed the lcm of the current denominators; every
// comparison is homogeneous in M, so that changes no value or circuit — at
// most it moves a call to a wider label width.
//
// Payload deltas: a BivaluedGraph logs the arcs set_cost and set_time
// rewrite after each payload stamp (BivaluedGraph::edits_since), and the
// scratch records the payload stamp it last brought its state up to. Under
// a kept topology a warm call then pays for the arcs the edit touched:
//   * only the edited cyclic arcs are rescaled, and max|T| and max|L| over
//     the core follow from them (a rescan only when an edited arc held the
//     maximum and fell);
//   * an i64 call on the graph's own costs whose λ numerator p and q·M
//     equal those its weights were computed at recomputes only the edited
//     arcs' weights; when its kept labels are a "no" of exactly those
//     weights, only the edited arcs' sources are tested against them. The
//     kept labels satisfy every other arc, so the queued set is the one a
//     full test finds.
// Full passes stay where no delta applies: a new topology (SCC, CSR and a
// fresh M), a log that cannot tell (every cyclic arc is then rescaled
// under the kept M), a fresh M, the first call after λ moves (every weight
// changes), has_positive_cycle checks on costs other than the graph's, and
// the λ = 0 probes (L ≡ 0); the last two drop the weights' key. Values,
// circuits, iteration counts and the kernel's arc scans are those of the
// full passes, bit for bit.
//
// Termination: every improvement sets λ to the ratio of a distinct
// elementary circuit and ratios strictly increase, so the loop is finite.
//
// Start times (compute_mcrp_potentials) are one more call of the same
// kernel, at the optimal λ over every arc of the graph, from zero labels:
// with no positive circuit left, it ends at the least nonnegative
// potentials, which are the final labels divided by the call's q·M. The
// call runs on a scratch of its own, so a warm solve's state is never
// touched.
//
// Warm start (McrpOptions::howard_warm_start): the previous solve's
// critical circuit, kept in the scratch as arc ids, seeds λ whenever those
// ids still form a simple circuit of the current graph — whatever changed
// in between. Its exact ratio is then a valid lower bound, so the loop
// starts from it and, on neighbouring points of a parametric sweep, often
// only confirms it. A seed that is an infeasibility witness is returned as
// one. Under a matching topology stamp the solve also keeps the SCC pass's
// result — the cyclic core — and its CSR, brings the scaled H and its
// weights up to date from the payload delta (see above), and its i64
// kernel calls start from the kept labels. The loop still runs to
// quiescence, so values are exact either way; only which co-critical
// circuit is reported (and the iteration counts) can change, through the
// seed alone.
//
// The scratch-based overload reuses every internal buffer (SCC state,
// relaxation labels, queues, cycle extraction) and the result object's
// vectors: warm re-solves on graphs of no larger size perform zero heap
// allocations. core/kiter.hpp threads one McrpScratch through all rounds
// of the K-iteration.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/scc.hpp"
#include "mcrp/bivalued.hpp"

namespace kp {

enum class McrpStatus {
  Optimal,     ///< λ is the max cycle ratio; critical_cycle achieves it.
  Infeasible,  ///< a circuit with H(c) <= 0, L(c) > 0 (or H(c) < 0) exists.
  NoCycle,     ///< the graph has no circuit: any period >= 0 is feasible.
};

/// Start times at the solved λ are a separate call (compute_mcrp_potentials).
struct McrpResult {
  McrpStatus status = McrpStatus::NoCycle;

  /// Max cycle ratio (minimum period). Valid when status == Optimal;
  /// zero when the critical circuit has zero total cost.
  Rational ratio;

  /// Arc ids of a critical circuit (Optimal) or of an infeasibility witness
  /// (Infeasible), in traversal order.
  std::vector<std::int32_t> critical_cycle;

  /// Candidate-circuit improvements, plus one for an infeasibility witness
  /// the loop found.
  int iterations = 0;
  /// Improvements of λ by the exact loop (a seed does not count).
  int exact_iterations = 0;
};

struct McrpOptions {
  /// Reuse the cyclic core under a matching topology stamp and seed from
  /// the previous circuit. The cyclic core and its CSR adjacency are kept
  /// when the graph's topology stamp matches the scratch's
  /// (BivaluedGraph::topology_stamp: same node count and arc list, payloads
  /// possibly rewritten via set_cost / set_time); the scaled H — M and
  /// T(e) — and the kernel's weights are then updated for the arcs the
  /// graph's edit log names since the scratch's payload stamp, or checked
  /// arc by arc when the log cannot tell (see the header comment). The
  /// scratch's previous critical circuit seeds λ when its arc ids form a
  /// simple circuit of this graph, stamp or no stamp. Its i64 kernel calls
  /// start from the scratch's kept labels under the warm headroom rule, and
  /// keep theirs on a "no". Values are unaffected — the exact improvement
  /// loop still runs to quiescence — only iteration counts and which
  /// co-critical circuit is reported can change, and only through the seed:
  /// neither kept labels nor payload deltas change them. Off by default;
  /// the parametric-sweep service turns it on.
  bool howard_warm_start = false;
};

/// Reusable state for the scratch-based overload.
struct McrpScratch {
  /// Arc of the cyclic core, endpoints denormalized for tight loops.
  struct ArcRef {
    std::int32_t id;  // arc id in the original graph
    std::int32_t src;
    std::int32_t dst;
  };

  SccScratch scc;
  SccResult scc_result;

  std::vector<ArcRef> cyclic;
  // Per arc id of the graph the core was derived from: its index in
  // `cyclic`, or -1 off the core. Maps the graph's edit log onto the core.
  std::vector<std::int32_t> cyclic_index;
  // The scaled H. time_scale is M, a common multiple of the H denominators
  // over the cyclic core (0 when M or some T(e) overflows i128: the graph's
  // H then has no integer path), and max_scaled_time is max|T(e)|, the
  // per-call bound's input. Per cyclic arc: T(e) = H(e)·M, the H it was
  // scaled from and the factor M/den, which let a set_time under the same
  // topology keep M (see the header comment).
  std::vector<i128> scaled_time;
  std::vector<Rational> scaled_from;
  std::vector<i128> scale_factor;
  i128 time_scale = 0;
  i128 max_scaled_time = 0;
  // The graph's L per cyclic arc and max|L| over the core, the other input
  // of the per-call bound.
  std::vector<i64> cost_from;
  i128 max_cost = 0;

  // CSR adjacency over the cyclic core (indices into `cyclic`).
  std::vector<std::int32_t> out_offsets;
  std::vector<std::int32_t> out_ids;
  std::vector<std::int32_t> cursor;

  // Positive-cycle kernel state: weights per cyclic arc and labels per
  // node at each of the three widths — scaled i64 under the per-call bound,
  // scaled i128 under the per-arc check, and Rational. A call fills only
  // the pair of the width it runs at.
  std::vector<i64> weights64;
  std::vector<i64> dist64;
  std::vector<i128> weights128;
  std::vector<i128> dist128;
  std::vector<Rational> weights;
  std::vector<Rational> dist;
  // The width the last kernel call ran at, and its scale q·M: its labels
  // (dist64, dist128 or dist) are q·M times the unscaled path weights.
  enum class LabelWidth : std::int8_t { I64, I128, Exact };
  LabelWidth label_width = LabelWidth::Exact;
  i128 label_scale = 1;
  // Kept labels: dist64 of the last i64 call under reuse that answered
  // "no", and its q·M; empty when none are kept. A later i64 call under
  // reuse at the same q·M and node count may start from them (see the
  // header comment).
  std::vector<i64> kept64;
  i128 kept_scale = 0;
  // Payload keys (payload stamps; 0: none). warm_payload is the state the
  // scratch last synced with, and `delta` lists the cyclic arcs whose L or
  // H moved from state delta_base to it. weights64 holds the weights of
  // the graph's own costs at λ numerator weights_num and q·M weights_qm as
  // of state weights_payload; kept_fit_weights says the kept labels are a
  // "no" of exactly those weights.
  std::uint64_t warm_payload = 0;
  std::vector<std::int32_t> delta;
  std::uint64_t delta_base = 0;
  i128 weights_num = 0;
  i128 weights_qm = 0;
  std::uint64_t weights_payload = 0;
  bool kept_fit_weights = false;
  // Cumulative counts, never reset: calls started from kept labels, their
  // "yes" answers re-run from zero labels, calls the warm headroom rule
  // sent back to zero labels, and i64 calls whose weights were kept or
  // updated for the delta alone.
  std::uint64_t kept_starts = 0;
  std::uint64_t kept_reruns = 0;
  std::uint64_t kept_bound_resets = 0;
  std::uint64_t delta_calls = 0;
  // Relaxation forest: parent arc (index into `cyclic`, -1 at a root) and
  // the preorder list (next/prev, circular through the virtual root n) with
  // each node's depth; -1 marks a node out of the forest.
  std::vector<std::int32_t> parent;
  std::vector<std::int32_t> next;
  std::vector<std::int32_t> prev;
  std::vector<std::int32_t> depth;
  std::vector<std::int32_t> ring;  // fixed-capacity ring buffer queue
  std::vector<std::int8_t> queued;

  // The circuit the kernel last found (original arc ids, traversal order)
  // and the current critical circuit: the last one that raised λ, or the
  // seed. A warm solve reads the previous solve's `critical` as its seed;
  // `seen` marks its nodes while it is checked.
  std::vector<std::int32_t> bf_cycle;
  std::vector<std::int32_t> critical;
  std::vector<std::int8_t> seen;

  // Warm-start key for the structural state: the topology stamp and sizes
  // of the graph `cyclic` and its CSR were derived from (0 = not reusable).
  std::uint64_t warm_topology = 0;
  std::int32_t warm_nodes = 0;
  std::int32_t warm_arcs = 0;

  /// Forces the next solve fully cold: no reused core, no seed, and its
  /// first kernel call starts from zero labels.
  void reset_warm_start() noexcept {
    warm_topology = 0;
    critical.clear();
    kept64.clear();
  }
};

[[nodiscard]] McrpResult solve_max_cycle_ratio(const BivaluedGraph& g,
                                               const McrpOptions& options = {});

/// Allocation-free (when warm) variant writing into `out`.
void solve_max_cycle_ratio(const BivaluedGraph& g, const McrpOptions& options,
                           McrpScratch& scratch, McrpResult& out);

/// True iff some circuit of `g` has positive total weight under
/// w(e) = costs[e] - λ·H(e) (`costs` holds one L value per arc id). The
/// symbolic-region engine (core/regions.hpp) calls this to certify that a
/// candidate ratio λ stays maximal along a parameter ray: no circuit beats
/// λ iff none is positive under w. Runs the solver's positive-cycle kernel
/// on scaled i64 or i128 labels (Rational only on overflow) over the
/// scratch's SCC-restricted cyclic core. Like a warm solve, it keeps the
/// core and its CSR when the graph's topology stamp matches what the
/// scratch last derived (any prior solve on `g` records it), and brings the
/// scaled H up to date from the payload delta; an i64 check starts from the
/// kept labels and keeps its own on a "no". Costs other than g.costs() drop
/// the scratch's weights key, so the next solve recomputes every weight.
/// After a "yes", scratch.bf_cycle holds the circuit a zero-start call
/// finds.
[[nodiscard]] bool has_positive_cycle(const BivaluedGraph& g, std::span<const i64> costs,
                                      const Rational& lambda, McrpScratch& scratch);

/// The least nonnegative node potentials S with
/// S_v - S_u >= L(e) - λ·H(e) for every arc — valid start times of the
/// minimum-period schedule when λ is the solved ratio. One call of the
/// positive-cycle kernel over every arc, at the width its per-call rule
/// picks, on a scratch of its own. It starts from zero labels, never from
/// kept ones: the relaxation ends at the least solution above its start
/// labels, and only zero start labels make that the least nonnegative one.
/// Precondition: no circuit of `g` has positive weight under w_λ, i.e. λ is
/// at least the max cycle ratio; a breach throws SolverError.
void compute_mcrp_potentials(const BivaluedGraph& g, const Rational& lambda,
                             std::vector<Rational>& out);

}  // namespace kp
