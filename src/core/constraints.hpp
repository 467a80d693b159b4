// Constraint-graph generation: Theorem 2 extended to K-periodic schedules
// (§3.1–§3.3 of the paper).
//
// For a consistent CSDFG G and a periodicity vector K, the minimum period of
// a K-periodic schedule is the optimum of a linear program with one variable
// per duplicated phase (K_t copies of each of t's phases) and one constraint
// per "useful" pair (p̃, p̃') of every buffer. The program is encoded as a
// bi-valued graph:
//
//   node  <t_p̃, 1>     for t ∈ T, p̃ ∈ 1..K_t·φ(t)
//   arc   <t_p̃> -> <t'_p̃'>  when α̃(p̃,p̃') <= β̃(p̃,p̃') with
//         L(e) = d(t_p̃)                  (duration of the producing phase)
//         H(e) = -β̃(p̃,p̃') / (q_t · i_b)
//
// The paper's H has denominator ĩ_b·q̃_t = q_t·i_b·lcm(K); we fold the
// common lcm(K) factor out of every arc (Theorem 3 divides it right back
// in), so the max cycle ratio of this graph *is* the graph period Ω_G — no
// post-scaling, and the numbers stay small.
//
// G̃ is never materialized: duplicated cumulative rates are evaluated
// arithmetically from the original vectors.
//
// Enumeration strategy: a pair (p̃, p̃') is useful iff a multiple of
// γ = gcd(ĩ_b, õ_b) falls in the window [Q̃-min(ĩn,õut), Q̃-1], i.e. iff
// (Q̃-1) mod γ < min(ĩn_b(p̃), õut_b(p̃')). Instead of scanning all
// rows × cols candidate pairs and discarding the dead ones, the generator
// solves that congruence per (producer phase, consumer phase) pair and
// steps directly through the surviving consumer iterations in γ-derived
// strides — per-buffer cost O(rows · φ(t') + useful constraints) instead of
// O(rows · cols). build_constraint_graph_reference keeps the brute-force
// scan for equivalence testing; both produce the identical arc multiset.
//
// Extra buffers: the generator functions below take a trailing
// `extra` span of buffers between tasks of g that g itself does not hold,
// each formed as CsdfGraph::add_buffer would form it (rate vectors sized by
// the endpoints' phase counts, totals and cumulative sums filled in).
// Their ids continue after g's own (g.buffer_count() + i for extra[i]),
// and every per-buffer step — emission, the content snapshot, the shape
// check, the diff, the splice and the pricing — walks g's buffers and then
// `extra`. A build of (g, extra) is therefore arc for arc, id for id, the
// build of a graph holding g's buffers followed by these. The service
// passes the serialization self-loops this way (model/transform.hpp,
// serialization_buffers_into), so K-Iter never copies a graph to
// serialize it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mcrp/bivalued.hpp"
#include "model/csdf.hpp"
#include "model/repetition.hpp"

namespace kp {

/// The constraint graph plus the node <-> (task, iteration, phase) maps
/// needed to read schedules and critical circuits back.
struct ConstraintGraph {
  BivaluedGraph graph;
  std::vector<i64> k;  // the periodicity vector this graph encodes

  // Node maps (one entry per node of `graph`):
  std::vector<TaskId> node_task;
  std::vector<std::int32_t> node_phase;  // original phase index, 1..φ(t)
  std::vector<std::int32_t> node_iter;   // duplication index, 1..K_t
  std::vector<std::int32_t> task_first_node;  // node id of <t, iter 1, phase 1>

  /// Node id of <t, iteration `iter` (1-based), phase `phase` (1-based)>.
  [[nodiscard]] std::int32_t node_of(TaskId t, std::int32_t iter, std::int32_t phase,
                                     std::int32_t phi_t) const {
    return task_first_node[static_cast<std::size_t>(t)] + (iter - 1) * phi_t + (phase - 1);
  }

  /// Distinct tasks visited by a circuit (arc id list), in first-seen order.
  [[nodiscard]] std::vector<TaskId> tasks_on_circuit(
      const std::vector<std::int32_t>& arc_ids) const;

  /// Allocation-free (when warm) variant: `seen` is a per-task scratch flag
  /// vector resized internally; distinct tasks are appended to `out`.
  void tasks_on_circuit_into(std::span<const std::int32_t> arc_ids,
                             std::vector<std::int8_t>& seen, std::vector<TaskId>& out) const;

  /// Human-readable "<A_2^1> -> <B_1^3>"-style rendering of a circuit.
  [[nodiscard]] std::string describe_circuit(const CsdfGraph& g,
                                             const std::vector<std::int32_t>& arc_ids) const;
};

/// Cooperative abort for constraint generation. `fn(ctx)` is polled about
/// once every `row_stride` producer rows, so a deadline or cancellation
/// overshoot inside a pathological single-round blowup is bounded by one
/// stride batch instead of one full round. Function-pointer + context form
/// (rather than std::function) so the K-iteration hot path can poll without
/// heap allocations; fn == nullptr disables polling entirely.
struct ConstraintPoll {
  bool (*fn)(void* ctx) = nullptr;  ///< return true to abandon the build
  void* ctx = nullptr;
  i64 row_stride = 256;

  [[nodiscard]] bool should_stop() const { return fn != nullptr && fn(ctx); }
};

/// State of the incremental constraint-graph engine, generalized from "same
/// graph, new K" (the K-Iter round loop) to "new graph, same structure"
/// (parametric DSE variant batches).
///
/// A buffer's arc span is fully determined by its *content fingerprint*:
/// its rate vectors, its initial marking, the producer's repetition-vector
/// entry, and the K of both endpoint tasks determine the arc topology and
/// the H payloads; the producer's phase durations determine the L payloads
/// (and nothing else). The cache keeps an exact flattened snapshot of that
/// content for the model the companion graph encodes: the words
/// append_content_snapshot writes (the result cache's key encoding, so the
/// two caches cannot drift apart) plus q per task — exact values, not
/// hashes, so a fingerprint match is a guarantee. A full rebuild writes the
/// whole snapshot into the retained vectors (allocation-free once warm); a
/// patch round rewrites in place only the words its diff saw move — the
/// durations of tasks whose durations changed, the marking and rate words
/// of touched buffers, and q — because a same-shaped graph keeps every
/// word's offset. Diffing a new (graph, K) request against the snapshot
/// classifies every buffer:
///
///   * fingerprint identical            -> splice the recorded span verbatim
///                                         (constant per-task node-id shift);
///   * producer durations changed only  -> splice + rewrite L payloads;
///   * anything structural changed      -> regenerate through the stride
///                                         enumerator;
///   * topology/phase-count mismatch    -> full rebuild (different shape).
///
/// and the round as a whole:
///
///   * every buffer touched             -> full rebuild, whatever changed
///                                         (nothing is left to keep);
///   * no task's K changed, and every   -> in place: rewrite the touched
///     regenerated span keeps its arc      spans' L/H payloads and the
///     count and endpoints                 recosted spans' L on the live
///                                         graph — no node relayout, no
///                                         splice, no CSR rebuild. A pure
///                                         execution-time delta is its
///                                         zero-touched-buffer case;
///   * no task's K changed otherwise    -> splice, taking the touched spans
///                                         from where they were emitted
///                                         aside (no buffer emitted twice);
///   * some task's K changed            -> splice, regenerating the touched
///                                         buffers into the scratch graph.
///
/// Patches splice into a ping-pong scratch graph and swap; both sides
/// retain capacity, so warm patched rounds stay zero-allocation (the
/// KIterWorkspace contract). A splice round rebuilds the companion graph's
/// CSR with the same single counting pass a rebuild runs
/// (Digraph::finalize), and block-copies (memmove) the node-map spans of
/// layout-unchanged tasks from the previous graph instead of rewriting them
/// element-wise.
///
/// Because the snapshot keys content, one workspace cache safely serves a
/// whole ThroughputService batch of graph variants back to back: a variant
/// that only changed what its delta names patches in O(changed); a
/// different graph altogether re-keys through the full-rebuild path. Any
/// build that bypasses the cache invalidates it.
struct ConstraintGraphCache {
  /// True iff buf_arc_begin and the content snapshot describe the current
  /// contents of the companion ConstraintGraph (which then encodes the K
  /// to diff against).
  bool valid = false;

  /// One entry per buffer (g's own, then the extra ones) plus one: buffer
  /// b's arcs occupy ids [buf_arc_begin[b], buf_arc_begin[b+1]) of the
  /// companion graph.
  std::vector<std::int32_t> buf_arc_begin;

  /// Content snapshot of the source model (see the class comment):
  /// `key` holds append_content_snapshot(g, key, extra); buffer b's
  /// (src, dst, M0) triple starts at key[buffers_at + 3·b] and the rate
  /// section (prod then cons, in buffer order) at key[rates_at]. `key_q`
  /// holds q per task, which the words leave out. Written whole by a
  /// rebuild, word by word (only what moved) by a patch.
  std::vector<i64> key;
  std::size_t buffers_at = 0;
  std::size_t rates_at = 0;
  std::vector<i64> key_q;

  /// Splice target; swapped with the companion graph after each patch.
  ConstraintGraph scratch;
  std::vector<std::int32_t> scratch_arc_begin;

  /// Side target of a round that keeps every task's K: the touched
  /// buffers' arcs, emitted once against the live node layout; buffer b's
  /// span is [aside_arc_begin[b], aside_arc_begin[b+1]) (empty when b is
  /// untouched). The in-place rewrite and the splice both read from here.
  BivaluedGraph aside;
  std::vector<std::int32_t> aside_arc_begin;

  /// Per-task / per-buffer scratch for one diff+patch (capacity retained):
  /// first-node shift, layout-changed and durations-changed task flags, and
  /// structurally-touched buffer flags.
  std::vector<std::int32_t> node_delta;
  std::vector<std::int8_t> task_touched;
  std::vector<std::int8_t> task_recost;
  std::vector<std::int8_t> buf_touched;

  /// Round counters for benchmarks and tests (never reset by invalidate).
  i64 patched_rounds = 0;   ///< rounds served by the splice path
  i64 rebuilt_rounds = 0;   ///< cold starts and full-rebuild fallbacks
  i64 payload_rounds = 0;   ///< in-place rounds: payload rewrites on the live graph

  /// Buffers re-enumerated through the stride generator by the most recent
  /// build (every buffer on a rebuild; 0 on a pure execution-time patch).
  i64 last_regenerated_buffers = 0;

  void invalidate() noexcept { valid = false; }
};

/// Appends the exact content snapshot of `g` plus `extra` — task count and
/// per-task phase counts, every phase duration in task order, buffer count
/// and per-buffer (src, dst, M0), every rate vector in buffer order (prod
/// then cons), with buffers walked as a build walks them: g's, then
/// `extra` — as flat 64-bit words onto `words`. (g, extra) appends the
/// words of a graph holding g's buffers followed by these. Two graphs
/// append identical words iff they are content-identical for every
/// analysis method (names excluded: they never influence a result's
/// values, only rendered descriptions are built from ids resolved against
/// the caller's own graph). This is the graph part of a util/hash.hpp
/// ContentKey and the ConstraintGraphCache's snapshot: exact values, not
/// hashes, so a key match is a guarantee — the service's content-addressed
/// result cache hashes the words only to pick a lock stripe.
void append_content_snapshot(const CsdfGraph& g, std::vector<i64>& words,
                             std::span<const Buffer> extra = {});

/// Builds the constraint graph for periodicity vector `k` (one entry per
/// task, each >= 1) over g's buffers followed by `extra` (see the header
/// comment). `rv` must be the repetition vector of `g` (consistent), and
/// of g plus `extra`.
[[nodiscard]] ConstraintGraph build_constraint_graph(const CsdfGraph& g,
                                                     const RepetitionVector& rv,
                                                     const std::vector<i64>& k,
                                                     std::span<const Buffer> extra = {});

/// Storage-reusing variant: rebuilds `out` in place, keeping the capacity of
/// every internal vector. After a warming build, rebuilding a graph of no
/// larger size performs zero heap allocations (the K-iteration hot path).
/// Returns false iff `poll` aborted the build — `out` is then partial and
/// must not be solved.
bool build_constraint_graph_into(const CsdfGraph& g, const RepetitionVector& rv,
                                 const std::vector<i64>& k, ConstraintGraph& out,
                                 const ConstraintPoll* poll = nullptr,
                                 std::span<const Buffer> extra = {});

/// Incremental build: produces in `out` a graph arc-for-arc identical (same
/// node ids, same arc ids, same payloads) to build_constraint_graph_into(g,
/// rv, k, out), but when `cache` is valid and holds a graph of the same
/// shape (task/buffer counts, phase counts, endpoints), only the buffers
/// whose content fingerprint changed — endpoint K, rates, marking, producer
/// q — are regenerated; every other buffer's arc span is spliced over with
/// a constant node-id shift, with L payloads rewritten in place for buffers
/// whose producer only changed durations. When no task's K changed and
/// every regenerated span keeps its arc count and endpoints, the round
/// rewrites payloads on the live graph instead (see the cache's round
/// table). `g` need NOT be the graph the cache was built from: any
/// same-shaped variant diffs against the content snapshot, which is what
/// lets one warm cache serve a parametric DSE batch (an execution-time-only
/// variant patches the live graph's L payloads and re-enumerates nothing).
/// Falls back to a recorded full rebuild on a cold cache, a shape mismatch,
/// or when a K change touches every buffer (the worst case: the critical
/// circuit covered every task). Returns false iff `poll` aborted; the cache
/// is then invalid and `out` must be rebuilt (after a mid-patch abort `out`
/// still holds the previous round's intact graph, but it does not
/// correspond to (g, k)).
bool build_constraint_graph_incremental(const CsdfGraph& g, const RepetitionVector& rv,
                                        const std::vector<i64>& k, ConstraintGraph& out,
                                        ConstraintGraphCache& cache,
                                        const ConstraintPoll* poll = nullptr,
                                        std::span<const Buffer> extra = {});

/// Brute-force O(rows·cols) reference generator (the pre-stride scan), kept
/// for the equivalence tests and the bench_hotpath comparison. Produces the
/// same arc multiset as build_constraint_graph. It takes no extra buffers:
/// compare it against a graph that holds them (add_serialization_buffers).
[[nodiscard]] ConstraintGraph build_constraint_graph_reference(const CsdfGraph& g,
                                                               const RepetitionVector& rv,
                                                               const std::vector<i64>& k);

/// Storage-reusing variant of the reference generator, so benchmarks can
/// time both generators on equal (warm, capacity-retained) footing.
void build_constraint_graph_reference_into(const CsdfGraph& g, const RepetitionVector& rv,
                                           const std::vector<i64>& k, ConstraintGraph& out);

/// Number of (p̃, p̃') pairs the brute-force generator would enumerate for
/// `k` — the candidate-space estimate used to refuse absurdly large
/// requests up front.
[[nodiscard]] i128 constraint_pair_count(const CsdfGraph& g, const std::vector<i64>& k,
                                         std::span<const Buffer> extra = {});

/// Upper bound (within a small constant) on the stride generator's work for
/// `k`: the O(rows·φ(t')) base scan plus a per-(row, consumer-phase) bound
/// on surviving constraints derived from the residue structure. On
/// gcd-structured graphs this is orders of magnitude below
/// constraint_pair_count — the resource guard takes the cheaper of the two
/// so the stride path's reach is not capped by the retired brute-force cost
/// model, while staying sound against congruence-aligned worst cases.
[[nodiscard]] i128 constraint_work_estimate(const CsdfGraph& g, const std::vector<i64>& k,
                                            std::span<const Buffer> extra = {});

/// Prices the round that patches the cached graph (currently encoding
/// `k_from`) into (g, k): buffers whose content fingerprint changed at the
/// stride generator's work estimate, untouched buffers at their exact copy
/// cost (the recorded arc span length; durations-only changes count as
/// untouched — the L rewrite is a copy-cost walk). Falls back to
/// constraint_work_estimate(g, k) when the cache is cold, the shape
/// mismatches, or the vectors are incomparable — so callers can always
/// take min(pair count, full estimate, this) as the round's price.
[[nodiscard]] i128 constraint_patch_work_estimate(const CsdfGraph& g, const RepetitionVector& rv,
                                                  const std::vector<i64>& k_from,
                                                  const std::vector<i64>& k,
                                                  const ConstraintGraphCache& cache,
                                                  std::span<const Buffer> extra = {});

}  // namespace kp
