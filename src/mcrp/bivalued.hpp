// Bi-valued directed graph (§3.3 of the paper).
//
// Every arc e carries a cost L(e) (a phase duration, integer >= 0) and a
// "time" H(e) (a rational, any sign). The Maximum Cost-to-time Ratio
// Problem asks for λ = max over elementary circuits c of
// R(c) = sum L / sum H, which equals the minimum period of the K-periodic
// schedule class the graph encodes.
//
// Sign conventions, derived from Theorem 2's constraint
//   S_v - S_u >= L(e) - Ω · H(e):
//   * a circuit with H(c) > 0 lower-bounds the period: Ω >= L(c)/H(c);
//   * a circuit with H(c) < 0, or H(c) == 0 with L(c) > 0, is satisfiable
//     by no positive period — the schedule class is empty (the paper's
//     "N/S" rows). Solvers must detect and report these.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rational.hpp"

namespace kp {

class BivaluedGraph {
 public:
  BivaluedGraph() = default;
  explicit BivaluedGraph(std::int32_t nodes) : g_(nodes) {}

  /// Rewinds to `nodes` isolated nodes, keeping allocated capacity (see the
  /// Digraph reuse contract).
  void reset(std::int32_t nodes) {
    g_.reset(nodes);
    cost_.clear();
    time_.clear();
    stamp_ = 0;
  }

  std::int32_t add_node() {
    stamp_ = 0;
    return g_.add_node();
  }

  std::int32_t add_arc(std::int32_t src, std::int32_t dst, i64 cost, Rational time) {
    const std::int32_t id = g_.add_arc(src, dst);
    cost_.push_back(cost);
    time_.push_back(std::move(time));
    stamp_ = 0;
    return id;
  }

  /// Splice primitive (see Digraph::append_arcs_shifted): appends `from`'s
  /// arcs [lo, hi) with endpoints shifted by (dsrc, ddst); costs and times
  /// copy verbatim. A constraint arc's H payload depends on its buffer's
  /// rates, marking, producer q and the endpoint tasks' K entries; its L
  /// payload additionally on the producer's phase durations — verbatim
  /// copy is therefore sound only for buffers whose fingerprint matched,
  /// and the incremental engine compensates duration-only changes by
  /// rewriting L over the spliced span afterwards (set_cost). `from`
  /// must be a different graph (the engine splices old -> scratch).
  void append_arcs_shifted(const BivaluedGraph& from, std::int32_t lo, std::int32_t hi,
                           std::int32_t dsrc, std::int32_t ddst) {
    assert(&from != this);
    g_.append_arcs_shifted(from.g_, lo, hi, dsrc, ddst);
    cost_.insert(cost_.end(), from.cost_.begin() + lo, from.cost_.begin() + hi);
    time_.insert(time_.end(), from.time_.begin() + lo, from.time_.begin() + hi);
    stamp_ = 0;
  }

  [[nodiscard]] const Digraph& graph() const noexcept { return g_; }
  [[nodiscard]] std::int32_t node_count() const noexcept { return g_.node_count(); }
  [[nodiscard]] std::int32_t arc_count() const noexcept { return g_.arc_count(); }

  [[nodiscard]] i64 cost(std::int32_t arc) const { return cost_.at(static_cast<std::size_t>(arc)); }
  [[nodiscard]] const Rational& time(std::int32_t arc) const {
    return time_.at(static_cast<std::size_t>(arc));
  }

  /// Rewrites one arc's cost in place. L is the only payload a pure
  /// execution-time delta touches, and it does not feed the CSR adjacency —
  /// so the incremental engine patches costs on the live graph without
  /// invalidating anything (endpoints and H stay verbatim). The layout
  /// stamp survives on purpose: a cost rewrite is exactly the change the
  /// MCRP solver's structural reuse (mcrp/cycle_ratio.hpp) may see through.
  void set_cost(std::int32_t arc, i64 cost) {
    assert(arc >= 0 && arc < arc_count());
    cost_[static_cast<std::size_t>(arc)] = cost;
  }

  /// Structural-identity stamp for solver warm starts: two graphs (or one
  /// graph at two times) reporting the same stamp have identical node/arc
  /// layout AND identical H payloads — only L costs may differ, because
  /// set_cost is the one mutator that preserves the stamp. Stamps are
  /// assigned lazily from a process-wide counter, so a fresh stamp is
  /// unique; copies keep the source's stamp (their layout is identical by
  /// construction), and every structural mutation clears it so the next
  /// query mints a new one. Like the lazy CSR build, the first query after
  /// a mutation is not reentrant — do not race it across threads.
  [[nodiscard]] std::uint64_t layout_stamp() const noexcept {
    if (stamp_ == 0) {
      static std::atomic<std::uint64_t> counter{0};
      stamp_ = counter.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    return stamp_;
  }

  /// Flat payload views for solver inner loops (index by arc id, unchecked).
  [[nodiscard]] std::span<const i64> costs() const noexcept { return cost_; }
  [[nodiscard]] std::span<const Rational> times() const noexcept { return time_; }

  /// Exact L(c) over a list of arc ids.
  [[nodiscard]] i64 cycle_cost(std::span<const std::int32_t> arcs) const {
    i64 sum = 0;
    for (const auto a : arcs) sum = checked_add(sum, cost(a));
    return sum;
  }

  /// Exact H(c) over a list of arc ids.
  [[nodiscard]] Rational cycle_time(std::span<const std::int32_t> arcs) const {
    Rational sum;
    for (const auto a : arcs) sum += time(a);
    return sum;
  }

 private:
  Digraph g_;
  std::vector<i64> cost_;
  std::vector<Rational> time_;
  mutable std::uint64_t stamp_ = 0;  // 0 = unassigned (see layout_stamp)
};

}  // namespace kp
