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
// detection algorithms", Math. Programming 1999). The parent pointers form
// a forest kept as one preorder list; before a node's label improves, its
// subtree leaves the forest, and an improvement whose source lies in that
// subtree closes a positive circuit, which is reported at once. Every label
// is thus the weight of a simple path. Labels are scaled integers: with M
// the lcm of the H denominators over the cyclic core (computed once per
// layout stamp) and λ = p/q, an arc weighs W(e) = L(e)·q·M - p·H(e)·M,
// exactly (q·M)·w_λ(e), so every comparison matches a relaxation on
// rationals. When M or some W leaves no i128 headroom, the same kernel runs
// on Rational labels instead.
//
// Termination: every improvement sets λ to the ratio of a distinct
// elementary circuit and ratios strictly increase, so the loop is finite.
//
// Warm start (McrpOptions::howard_warm_start): the previous solve's
// critical circuit, kept in the scratch as arc ids, seeds λ whenever those
// ids still form a simple circuit of the current graph — whatever changed
// in between. Its exact ratio is then a valid lower bound, so the loop
// starts from it and, on neighbouring points of a parametric sweep, often
// only confirms it. A seed that is an infeasibility witness is returned as
// one. Under a matching layout stamp the solve also keeps the cyclic core,
// its CSR and its scaled H. The loop still runs to quiescence, so values
// are exact either way; only which co-critical circuit is reported (and
// the iteration counts) can change.
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

struct McrpResult {
  McrpStatus status = McrpStatus::NoCycle;

  /// Max cycle ratio (minimum period). Valid when status == Optimal;
  /// zero when the critical circuit has zero total cost.
  Rational ratio;

  /// Arc ids of a critical circuit (Optimal) or of an infeasibility witness
  /// (Infeasible), in traversal order.
  std::vector<std::int32_t> critical_cycle;

  /// Node potentials S with S_v - S_u >= L(e) - λ·H(e) for every arc —
  /// i.e. valid start times of the minimum-period schedule. Filled when
  /// status != Infeasible and options.compute_potentials.
  std::vector<Rational> potentials;

  /// Candidate-circuit improvements, plus one for an infeasibility witness
  /// the loop found.
  int iterations = 0;
  /// Improvements of λ by the exact loop (a seed does not count).
  int exact_iterations = 0;
};

struct McrpOptions {
  /// Reuse the cyclic core under a matching stamp and seed from the
  /// previous circuit. The cyclic core, its CSR adjacency and scaled H are
  /// kept when the graph's layout stamp matches the scratch's
  /// (BivaluedGraph::layout_stamp: same node/arc layout and H payloads, L
  /// possibly rewritten via set_cost). The scratch's previous critical
  /// circuit seeds λ when its arc ids form a simple circuit of this graph,
  /// stamp or no stamp. Values are unaffected — the exact improvement loop
  /// still runs to quiescence — only iteration counts and which co-critical
  /// circuit is reported can change. Off by default; the parametric-sweep
  /// service turns it on.
  bool howard_warm_start = false;
  /// Fill McrpResult::potentials.
  bool compute_potentials = true;
  /// Safety bound on improvement steps (a diagnostic aid; the algorithm
  /// terminates on its own).
  int max_iterations = 1 << 20;
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
  // Per cyclic arc: T(e) = H(e)·time_scale, where time_scale is the lcm M
  // of the H denominators over the cyclic core (0 when M or some T(e)
  // overflows i128: the layout then has no integer path). Both belong to
  // the warm stamp below, since set_cost rewrites only L.
  std::vector<i128> scaled_time;
  i128 time_scale = 0;

  // CSR adjacency over the cyclic core (indices into `cyclic`).
  std::vector<std::int32_t> out_offsets;
  std::vector<std::int32_t> out_ids;
  std::vector<std::int32_t> cursor;

  // Positive-cycle kernel state. Weights and labels are per cyclic arc and
  // per node: scaled i128 normally, Rational on the overflow fallback.
  std::vector<i128> int_weights;
  std::vector<i128> int_dist;
  std::vector<Rational> weights;
  std::vector<Rational> dist;
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

  // Warm-start key for the structural state (`cyclic`, its CSR and scaled
  // H): the layout stamp and sizes of the graph they were derived from.
  // 0 = not reusable.
  std::uint64_t warm_stamp = 0;
  std::int32_t warm_nodes = 0;
  std::int32_t warm_arcs = 0;

  /// Forces the next solve fully cold: no reused core, no seed.
  void reset_warm_start() noexcept {
    warm_stamp = 0;
    critical.clear();
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
/// on scaled i128 labels (Rational only on overflow) over the scratch's
/// SCC-restricted cyclic core, which it reuses when the graph's layout stamp
/// matches what the scratch last derived (any prior solve on `g` records
/// it) and derives cold otherwise.
[[nodiscard]] bool has_positive_cycle(const BivaluedGraph& g, std::span<const i64> costs,
                                      const Rational& lambda, McrpScratch& scratch);

/// Just the potentials relaxation at a given λ (the pass solve_… performs
/// when compute_potentials is set). Precondition: no circuit of `g` has
/// positive weight under w_λ — i.e. λ is (at least) the max cycle ratio.
/// Lets a caller that already solved without potentials extract start times
/// later without re-running the improvement loop.
void compute_mcrp_potentials(const BivaluedGraph& g, const Rational& lambda,
                             McrpScratch& scratch, std::vector<Rational>& out);

}  // namespace kp
