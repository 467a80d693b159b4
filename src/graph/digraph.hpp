// Compact directed multigraph used by the analysis layers.
//
// Nodes and arcs are dense integer ids; payloads (weights, labels) live in
// parallel vectors owned by the client.
//
// Out-adjacency is stored in CSR (compressed sparse row) form: two flat
// arrays, `offsets` (node_count + 1 entries) and `arc_ids` (arc_count
// entries), so out_arcs(v) is the contiguous span
// arc_ids[offsets[v] .. offsets[v+1]). Every client (SCC, the MCRP solver,
// Karp, the scenario FSM) walks arcs forwards only, so no in-adjacency is
// kept. The CSR arrays are (re)built lazily in one counting pass over the
// arc list the first time adjacency is queried after a mutation;
// `finalize()` forces the build eagerly. Within a node's span, arc ids
// appear in insertion order (the build iterates arcs in id order).
//
// Reuse contract: `reset(n)` rewinds the graph to n isolated nodes while
// keeping every buffer's capacity, and the CSR rebuild only assigns into
// those buffers — so a Digraph cycled through reset()/add_arc()/finalize()
// with non-growing sizes performs zero heap allocations. This is what the
// K-iteration hot path (core/kiter.hpp) relies on.
//
// The checked accessors (arc, out_arcs) throw ModelError on bad ids; the
// *_unchecked / out_span variants assert in debug builds and are free in
// release — use them only in solver inner loops over ids the caller already
// validated. Lazy CSR building makes const adjacency queries non-reentrant:
// do not query adjacency from multiple threads while the graph is dirty
// (finalize() first). Adjacency spans point into the shared CSR arrays: any
// mutation (add_arc/reset) followed by an adjacency query rebuilds
// those arrays and invalidates every previously returned span — re-query
// instead of holding spans across mutations.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/error.hpp"

namespace kp {

class Digraph {
 public:
  struct Arc {
    std::int32_t src = -1;
    std::int32_t dst = -1;

    friend bool operator==(const Arc&, const Arc&) = default;
  };

  Digraph() = default;
  explicit Digraph(std::int32_t node_count) : nodes_(node_count) {}

  /// Rewinds to `node_count` isolated nodes, keeping allocated capacity.
  void reset(std::int32_t node_count) {
    nodes_ = node_count;
    arcs_.clear();
    csr_valid_ = false;
  }

  /// Adds an arc src -> dst and returns its id. Parallel arcs and self-loops
  /// are allowed (both occur in constraint graphs).
  std::int32_t add_arc(std::int32_t src, std::int32_t dst) {
    check_node(src);
    check_node(dst);
    const auto id = static_cast<std::int32_t>(arcs_.size());
    arcs_.push_back(Arc{src, dst});
    csr_valid_ = false;
    return id;
  }

  /// Splice primitive for the incremental constraint engine: bulk-appends
  /// `from`'s arcs [lo, hi) with every endpoint shifted by (dsrc, ddst) —
  /// the constant per-span remap of a node-layout change. Equivalent to
  /// add_arc on each shifted arc but a single grow + tight copy loop;
  /// endpoints are asserted (not checked) because callers derive the shifts
  /// from an already-validated node layout. `from` must be a different
  /// graph (the incremental engine splices the old graph into a scratch).
  void append_arcs_shifted(const Digraph& from, std::int32_t lo, std::int32_t hi,
                           std::int32_t dsrc, std::int32_t ddst) {
    assert(&from != this);
    assert(0 <= lo && lo <= hi && hi <= from.arc_count());
    const auto base = arcs_.size();
    arcs_.resize(base + static_cast<std::size_t>(hi - lo));
    for (std::int32_t i = lo; i < hi; ++i) {
      const Arc& a = from.arcs_[static_cast<std::size_t>(i)];
      assert(a.src + dsrc >= 0 && a.src + dsrc < nodes_);
      assert(a.dst + ddst >= 0 && a.dst + ddst < nodes_);
      arcs_[base + static_cast<std::size_t>(i - lo)] = Arc{a.src + dsrc, a.dst + ddst};
    }
    csr_valid_ = false;
  }

  [[nodiscard]] std::int32_t node_count() const noexcept { return nodes_; }
  [[nodiscard]] std::int32_t arc_count() const noexcept {
    return static_cast<std::int32_t>(arcs_.size());
  }

  [[nodiscard]] const Arc& arc(std::int32_t id) const {
    if (id < 0 || id >= arc_count()) throw ModelError("Digraph::arc: bad id");
    return arcs_[static_cast<std::size_t>(id)];
  }

  /// Unchecked in release; assert in debug. For validated solver loops.
  [[nodiscard]] const Arc& arc_unchecked(std::int32_t id) const noexcept {
    assert(id >= 0 && id < arc_count());
    return arcs_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::span<const Arc> arcs() const noexcept { return arcs_; }

  /// Builds the CSR adjacency now (idempotent). One counting pass; only
  /// assigns into retained buffers, so warm rebuilds do not allocate.
  void finalize() const {
    if (!csr_valid_) build_csr();
  }

  /// Ids of arcs leaving `node`, in insertion order.
  [[nodiscard]] std::span<const std::int32_t> out_arcs(std::int32_t node) const {
    check_node(node);
    finalize();
    return out_span(node);
  }

  /// Unchecked span accessor: requires a prior finalize() and a valid node.
  [[nodiscard]] std::span<const std::int32_t> out_span(std::int32_t node) const noexcept {
    assert(csr_valid_ && node >= 0 && node < nodes_);
    const auto v = static_cast<std::size_t>(node);
    return {out_ids_.data() + out_offsets_[v],
            static_cast<std::size_t>(out_offsets_[v + 1] - out_offsets_[v])};
  }

 private:
  void check_node(std::int32_t n) const {
    if (n < 0 || n >= nodes_) throw ModelError("Digraph: bad node id");
  }

  void build_csr() const {
    build_csr_index(nodes_, arcs_, [](const Arc& a) { return a.src; }, out_offsets_, out_ids_,
                    cursor_);
    csr_valid_ = true;
  }

  std::int32_t nodes_ = 0;
  std::vector<Arc> arcs_;

  // Lazily rebuilt CSR out-adjacency (mutable: adjacency queries are const).
  mutable bool csr_valid_ = false;
  mutable std::vector<std::int32_t> out_offsets_;
  mutable std::vector<std::int32_t> out_ids_;
  mutable std::vector<std::int32_t> cursor_;
};

}  // namespace kp
