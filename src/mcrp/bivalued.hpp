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

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
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
    clear_stamps();
  }

  std::int32_t add_arc(std::int32_t src, std::int32_t dst, i64 cost, Rational time) {
    const std::int32_t id = g_.add_arc(src, dst);
    cost_.push_back(cost);
    time_.push_back(std::move(time));
    clear_stamps();
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
  /// must be a different graph (the engine splices old -> scratch, and
  /// re-marked spans from where it emitted them aside).
  void append_arcs_shifted(const BivaluedGraph& from, std::int32_t lo, std::int32_t hi,
                           std::int32_t dsrc, std::int32_t ddst) {
    assert(&from != this);
    g_.append_arcs_shifted(from.g_, lo, hi, dsrc, ddst);
    cost_.insert(cost_.end(), from.cost_.begin() + lo, from.cost_.begin() + hi);
    time_.insert(time_.end(), from.time_.begin() + lo, from.time_.begin() + hi);
    clear_stamps();
  }

  [[nodiscard]] const Digraph& graph() const noexcept { return g_; }
  [[nodiscard]] std::int32_t node_count() const noexcept { return g_.node_count(); }
  [[nodiscard]] std::int32_t arc_count() const noexcept { return g_.arc_count(); }

  [[nodiscard]] i64 cost(std::int32_t arc) const { return cost_.at(static_cast<std::size_t>(arc)); }
  [[nodiscard]] const Rational& time(std::int32_t arc) const {
    return time_.at(static_cast<std::size_t>(arc));
  }

  /// Rewrites one arc's cost in place and logs the edit (see
  /// payload_stamp); writing the cost an arc already has is no edit. L does
  /// not feed the CSR adjacency, so the topology stamp survives.
  void set_cost(std::int32_t arc, i64 cost) {
    assert(arc >= 0 && arc < arc_count());
    i64& slot = cost_[static_cast<std::size_t>(arc)];
    if (slot == cost) return;
    slot = cost;
    log_edit(arc);
  }

  /// Rewrites one arc's time in place and logs the edit. Endpoints and the
  /// CSR stay put, so the topology stamp survives. The incremental
  /// constraint engine rewrites a re-marked buffer's span this way when the
  /// new span keeps the old endpoints, and skips arcs whose H is unchanged.
  void set_time(std::int32_t arc, Rational time) {
    assert(arc >= 0 && arc < arc_count());
    time_[static_cast<std::size_t>(arc)] = std::move(time);
    log_edit(arc);
  }

  /// Identity stamps for solver warm starts, one per kind of change. Two
  /// graphs (or one graph at two times) reporting the same topology stamp
  /// have identical node counts and arc lists (ids and endpoints); payloads
  /// may differ. The same payload stamp additionally guarantees the same L
  /// and H on every arc. Every structural mutation (add_arc,
  /// append_arcs_shifted, reset) clears both stamps and empties the edit
  /// log. set_cost and set_time keep the topology stamp; the first edit
  /// after a payload stamp was minted retires it and records a mark (the
  /// retired stamp, the log position), and every edit appends its arc id to
  /// the log, so edits_since can name the arcs that changed since a payload
  /// state a solver observed. Stamps are minted lazily from one
  /// process-wide counter, so a stamp is never reused. Copies keep the
  /// source's stamps and log, and so answer for every payload state they
  /// share with it. Like the lazy CSR build, the first query after a
  /// mutation is not reentrant — do not race it across threads.
  [[nodiscard]] std::uint64_t topology_stamp() const noexcept { return mint(topology_stamp_); }
  [[nodiscard]] std::uint64_t payload_stamp() const noexcept { return mint(payload_stamp_); }

  /// The arcs whose L or H was rewritten since this graph's payload stamp
  /// was `stamp`, in edit order (an arc may repeat, and an arc rewritten
  /// back to its old value still counts), or nullopt when the log cannot
  /// tell: `stamp` is 0 or no payload state of this graph or its sources,
  /// or its edits were dropped. The log keeps the newest kMarks retired
  /// stamps and at most arc_count() entries; when an edit would overflow
  /// it, the older marks go first, and the newest too when its own edits
  /// fill the log.
  [[nodiscard]] std::optional<std::span<const std::int32_t>> edits_since(
      std::uint64_t stamp) const noexcept {
    if (stamp == 0) return std::nullopt;
    if (stamp == payload_stamp_) return std::span<const std::int32_t>{};
    for (std::size_t k = 0; k < mark_count_; ++k) {
      if (marks_[k].stamp == stamp) return std::span<const std::int32_t>(edits_).subspan(marks_[k].at);
    }
    return std::nullopt;
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
  /// A retired payload stamp and the log position its edits start at.
  struct Mark {
    std::uint64_t stamp = 0;
    std::size_t at = 0;
  };
  static constexpr std::size_t kMarks = 4;

  static std::uint64_t mint(std::uint64_t& stamp) noexcept {
    if (stamp == 0) {
      static std::atomic<std::uint64_t> counter{0};
      stamp = counter.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    return stamp;
  }

  void clear_stamps() noexcept {
    payload_stamp_ = 0;
    topology_stamp_ = 0;
    forget_edits();
  }

  void forget_edits() noexcept {
    edits_.clear();
    mark_count_ = 0;
  }

  /// Drops the oldest mark and the edits only it needed (mark_count_ >= 2).
  void drop_oldest_mark() noexcept {
    const std::size_t cut = marks_[1].at;
    edits_.erase(edits_.begin(), edits_.begin() + static_cast<std::ptrdiff_t>(cut));
    for (std::size_t k = 1; k < mark_count_; ++k) marks_[k - 1] = {marks_[k].stamp, marks_[k].at - cut};
    --mark_count_;
  }

  void log_edit(std::int32_t arc) {
    if (payload_stamp_ != 0) {
      if (mark_count_ == kMarks) drop_oldest_mark();
      marks_[mark_count_++] = {payload_stamp_, edits_.size()};
      payload_stamp_ = 0;
    }
    if (mark_count_ == 0) return;  // no stamp minted since the log emptied: nobody can ask
    // set_cost then set_time on one arc (the in-place rewrite) logs it once.
    if (edits_.size() > marks_[mark_count_ - 1].at && edits_.back() == arc) return;
    const auto cap = static_cast<std::size_t>(arc_count());
    if (edits_.size() == cap) {
      while (mark_count_ > 1) drop_oldest_mark();
      if (edits_.size() == cap) {
        forget_edits();
        return;
      }
    }
    if (edits_.capacity() < cap) edits_.reserve(cap);
    edits_.push_back(arc);
  }

  Digraph g_;
  std::vector<i64> cost_;
  std::vector<Rational> time_;
  // 0 = unassigned (see topology_stamp / payload_stamp).
  mutable std::uint64_t topology_stamp_ = 0;
  mutable std::uint64_t payload_stamp_ = 0;
  // The edit log: arc ids in edit order, and the marks that index it.
  std::vector<std::int32_t> edits_;
  std::array<Mark, kMarks> marks_{};
  std::size_t mark_count_ = 0;
};

}  // namespace kp
