#include "mcrp/cycle_ratio.hpp"

#include <algorithm>

#include "graph/csr.hpp"
#include "graph/scc.hpp"
#include "util/error.hpp"

namespace kp {

namespace {

using ArcRef = McrpScratch::ArcRef;

/// Fixed-capacity FIFO over a scratch vector. At most one entry per node is
/// queued at a time (callers guard with a `queued` flag), so capacity
/// node_count + 1 never overflows and the buffer is reused allocation-free.
class RingQueue {
 public:
  RingQueue(std::vector<std::int32_t>& buf, std::int32_t capacity)
      : buf_(buf), cap_(static_cast<std::size_t>(capacity) + 1) {
    buf_.resize(cap_);
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }

  void push(std::int32_t v) noexcept {
    buf_[tail_] = v;
    tail_ = (tail_ + 1) % cap_;
  }

  std::int32_t pop() noexcept {
    const std::int32_t v = buf_[head_];
    head_ = (head_ + 1) % cap_;
    return v;
  }

 private:
  std::vector<std::int32_t>& buf_;
  std::size_t cap_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// Writes the circuit that arc i = (u, v) closes when u lies in v's
/// relaxation subtree — the tree path v..u, then i — to scratch.bf_cycle as
/// original arc ids in traversal order.
bool close_cycle(std::int32_t u, std::int32_t v, std::int32_t i, McrpScratch& s) {
  s.bf_cycle.push_back(s.cyclic[static_cast<std::size_t>(i)].id);
  for (std::int32_t x = u; x != v;) {
    const ArcRef& a = s.cyclic[static_cast<std::size_t>(s.parent[static_cast<std::size_t>(x)])];
    s.bf_cycle.push_back(a.id);
    x = a.src;
  }
  std::reverse(s.bf_cycle.begin(), s.bf_cycle.end());
  return true;
}

/// The positive-cycle kernel: queue-based (SPFA-style) longest-path
/// relaxation with all-zero sources over the cyclic core (scratch.cyclic +
/// its CSR) under per-cyclic-arc weights `w`, on labels `dist`. Returns
/// whether a positive-weight circuit exists; if so, one is left in
/// scratch.bf_cycle.
///
/// Tarjan's subtree disassembly: the parent pointers form a forest kept as
/// one preorder list, circular through the virtual root n (depth -1) whose
/// zero-weight arcs give the all-zero start. Before v improves via arc
/// (u, v), v's subtree — the preorder run after v deeper than v — is
/// walked: meeting u there means the tree path v..u plus (u, v) is a
/// positive circuit. Otherwise the run leaves the forest and v is inserted
/// as u's first child. A popped node out of the forest is skipped: an
/// ancestor improved since it was queued, so its label will improve again.
/// Every label therefore stays the weight of a simple path (at most n-1
/// arcs), which is the headroom bound integer labels rely on.
template <typename Label>
bool positive_cycle(std::int32_t n, McrpScratch& s, const std::vector<Label>& w,
                    std::vector<Label>& dist) {
  const auto un = static_cast<std::size_t>(n);
  dist.assign(un, Label{});
  s.parent.assign(un, -1);
  s.depth.assign(un + 1, 0);
  s.depth[un] = -1;
  s.next.resize(un + 1);
  s.prev.resize(un + 1);
  for (std::size_t v = 0; v <= un; ++v) {
    s.next[v] = static_cast<std::int32_t>(v == un ? 0 : v + 1);
    s.prev[v] = static_cast<std::int32_t>(v == 0 ? un : v - 1);
  }
  s.queued.assign(un, 0);
  s.bf_cycle.clear();
  RingQueue queue(s.ring, n);
  for (std::int32_t v = 0; v < n; ++v) {
    if (s.out_offsets[static_cast<std::size_t>(v)] !=
        s.out_offsets[static_cast<std::size_t>(v) + 1]) {
      queue.push(v);
      s.queued[static_cast<std::size_t>(v)] = 1;
    }
  }

  while (!queue.empty()) {
    const std::int32_t u = queue.pop();
    s.queued[static_cast<std::size_t>(u)] = 0;
    if (s.depth[static_cast<std::size_t>(u)] < 0) continue;
    const auto lo = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u)]);
    const auto hi = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u) + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::int32_t i = s.out_ids[k];
      const std::int32_t v = s.cyclic[static_cast<std::size_t>(i)].dst;
      Label cand = dist[static_cast<std::size_t>(u)] + w[static_cast<std::size_t>(i)];
      if (!(cand > dist[static_cast<std::size_t>(v)])) continue;
      const std::int32_t dv = s.depth[static_cast<std::size_t>(v)];
      if (dv >= 0) {
        std::int32_t x = v;
        do {
          if (x == u) return close_cycle(u, v, i, s);
          s.depth[static_cast<std::size_t>(x)] = -1;
          x = s.next[static_cast<std::size_t>(x)];
        } while (s.depth[static_cast<std::size_t>(x)] > dv);
        const std::int32_t before = s.prev[static_cast<std::size_t>(v)];
        s.next[static_cast<std::size_t>(before)] = x;
        s.prev[static_cast<std::size_t>(x)] = before;
      }
      dist[static_cast<std::size_t>(v)] = std::move(cand);
      s.parent[static_cast<std::size_t>(v)] = i;
      s.depth[static_cast<std::size_t>(v)] = s.depth[static_cast<std::size_t>(u)] + 1;
      const std::int32_t after = s.next[static_cast<std::size_t>(u)];
      s.prev[static_cast<std::size_t>(v)] = u;
      s.next[static_cast<std::size_t>(v)] = after;
      s.prev[static_cast<std::size_t>(after)] = v;
      s.next[static_cast<std::size_t>(u)] = v;
      if (!s.queued[static_cast<std::size_t>(v)]) {
        s.queued[static_cast<std::size_t>(v)] = 1;
        queue.push(v);
      }
    }
  }
  return false;
}

/// True iff some circuit of the cyclic core is positive under
/// w(e) = L(e) - λ·H(e), where L(e) = costs[e], or L ≡ 0 when `costs` is
/// empty; one such circuit is left in scratch.bf_cycle. For λ = p/q the
/// kernel runs on W(e) = L(e)·q·M - p·T(e) = (q·M)·w(e) in i128, and on
/// Rational weights only when the layout has no scale M or some W exceeds
/// the headroom that keeps n+2 of them summable.
bool positive_cycle_at(const BivaluedGraph& bg, std::span<const i64> costs,
                       const Rational& lambda, McrpScratch& s) {
  const std::int32_t n = bg.node_count();
  const std::size_t m = s.cyclic.size();
  if (s.time_scale != 0) {
    try {
      constexpr i128 k_i128_max = static_cast<i128>((~static_cast<unsigned __int128>(0)) >> 1);
      const i128 limit = k_i128_max / (i128{n} + 2);
      const i128 qm = checked_mul(lambda.den(), s.time_scale);
      s.int_weights.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        const i128 l = costs.empty()
                           ? 0
                           : checked_mul(i128{costs[static_cast<std::size_t>(s.cyclic[i].id)]}, qm);
        const i128 w = checked_sub(l, checked_mul(lambda.num(), s.scaled_time[i]));
        if (w > limit || w < -limit) throw_overflow("positive-cycle weight headroom");
        s.int_weights[i] = w;
      }
      return positive_cycle(n, s, s.int_weights, s.int_dist);
    } catch (const OverflowError&) {
      // Scaled weights too large: fall through to Rational labels.
    }
  }
  const std::span<const Rational> times = bg.times();
  s.weights.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto id = static_cast<std::size_t>(s.cyclic[i].id);
    s.weights[i] = (costs.empty() ? Rational{} : Rational{costs[id]}) - lambda * times[id];
  }
  return positive_cycle(n, s, s.weights, s.dist);
}

/// True if the circuit makes the constraint system unsatisfiable for every
/// positive period: H(c) < 0, or H(c) == 0 with L(c) > 0.
bool is_infeasible_circuit(i64 cost, const Rational& time) {
  return time.sign() < 0 || (time.is_zero() && cost > 0);
}

/// (Re)derives the scratch's SCC-restricted cyclic core, its CSR adjacency
/// and its scaled H payloads for `bg` (whose Digraph must be finalized),
/// recording the warm key so a later stamp-matching solve or positive-cycle
/// check reuses them.
void derive_cyclic_core(const BivaluedGraph& bg, McrpScratch& scratch) {
  const Digraph& g = bg.graph();
  const std::int32_t n = g.node_count();
  scratch.warm_stamp = 0;
  // Circuits live inside strongly connected components; restrict the
  // cycle search to arcs whose endpoints share an SCC.
  strongly_connected_components(g, scratch.scc, scratch.scc_result);
  const SccResult& scc = scratch.scc_result;
  scratch.cyclic.clear();
  const std::span<const Digraph::Arc> all_arcs = g.arcs();
  for (std::int32_t a = 0; a < g.arc_count(); ++a) {
    const auto& e = all_arcs[static_cast<std::size_t>(a)];
    if (scc.component_of[static_cast<std::size_t>(e.src)] ==
        scc.component_of[static_cast<std::size_t>(e.dst)]) {
      scratch.cyclic.push_back(ArcRef{a, e.src, e.dst});
    }
  }
  if (!scratch.cyclic.empty()) {
    build_csr_index(n, scratch.cyclic, [](const ArcRef& a) { return a.src; },
                    scratch.out_offsets, scratch.out_ids, scratch.cursor);
  }
  // Scale H once per layout: M = lcm of the cyclic H denominators and
  // T(e) = H(e)·M, or no integer path (M = 0) when either overflows.
  const std::span<const Rational> times = bg.times();
  scratch.scaled_time.resize(scratch.cyclic.size());
  try {
    i128 scale = 1;
    for (const ArcRef& a : scratch.cyclic) {
      const i128 den = times[static_cast<std::size_t>(a.id)].den();
      if (scale % den != 0) scale = lcm128(scale, den);
    }
    for (std::size_t i = 0; i < scratch.cyclic.size(); ++i) {
      const Rational& h = times[static_cast<std::size_t>(scratch.cyclic[i].id)];
      scratch.scaled_time[i] = checked_mul(h.num(), scale / h.den());
    }
    scratch.time_scale = scale;
  } catch (const OverflowError&) {
    scratch.time_scale = 0;
  }
  scratch.warm_stamp = bg.layout_stamp();
  scratch.warm_nodes = n;
  scratch.warm_arcs = g.arc_count();
}

/// True when the scratch's cyclic core, CSR and scaled H were derived from a
/// graph with this exact layout (node/arc topology and H payloads; L costs
/// free).
bool core_reusable(const BivaluedGraph& bg, const McrpScratch& scratch) {
  return scratch.warm_stamp != 0 && scratch.warm_stamp == bg.layout_stamp() &&
         scratch.warm_nodes == bg.graph().node_count() &&
         scratch.warm_arcs == bg.graph().arc_count();
}

/// True when `arcs`, ids recorded on some earlier graph, form a simple
/// circuit of `g`: every id in range, each arc ending where the next one
/// starts, the last closing on the first, and no node visited twice.
bool is_simple_circuit(const Digraph& g, std::span<const std::int32_t> arcs,
                       std::vector<std::int8_t>& seen) {
  if (arcs.empty()) return false;
  for (const std::int32_t a : arcs) {
    if (a < 0 || a >= g.arc_count()) return false;
  }
  seen.assign(static_cast<std::size_t>(g.node_count()), 0);
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const Digraph::Arc& e = g.arc_unchecked(arcs[i]);
    const auto src = static_cast<std::size_t>(e.src);
    if (seen[src] || e.dst != g.arc_unchecked(arcs[(i + 1) % arcs.size()]).src) return false;
    seen[src] = 1;
  }
  return true;
}

}  // namespace

McrpResult solve_max_cycle_ratio(const BivaluedGraph& bg, const McrpOptions& options) {
  McrpScratch scratch;
  McrpResult result;
  solve_max_cycle_ratio(bg, options, scratch, result);
  return result;
}

void solve_max_cycle_ratio(const BivaluedGraph& bg, const McrpOptions& options,
                           McrpScratch& scratch, McrpResult& out) {
  out.status = McrpStatus::NoCycle;
  out.ratio = Rational{0};
  out.critical_cycle.clear();
  out.potentials.clear();
  out.iterations = 0;
  out.exact_iterations = 0;

  bg.graph().finalize();
  const std::span<const i64> costs = bg.costs();

  // The cyclic core, its CSR and its scaled H depend only on topology and
  // H, which the layout stamp certifies unchanged (only L costs may have
  // been rewritten via set_cost since the scratch last saw this graph) —
  // so a warm solve skips the SCC pass and every derivation. Recorded
  // unconditionally after a cold derivation so a later warm call can reuse
  // it.
  const bool warm = options.howard_warm_start;
  if (!warm || !core_reusable(bg, scratch)) derive_cyclic_core(bg, scratch);
  auto& cyclic = scratch.cyclic;

  Rational lambda{0};
  auto& critical = scratch.critical;

  // Seed: the previous solve's critical circuit, if its arc ids still form
  // a simple circuit of this graph. Its exact ratio is then a lower bound
  // on λ* (a positive one, or the seed is dropped), and an infeasible seed
  // is a witness as good as any the loop would find.
  if (!warm || !is_simple_circuit(bg.graph(), critical, scratch.seen)) critical.clear();
  if (!critical.empty()) {
    const i64 lc = bg.cycle_cost(critical);
    const Rational hc = bg.cycle_time(critical);
    if (is_infeasible_circuit(lc, hc)) {
      out.status = McrpStatus::Infeasible;
      out.critical_cycle.assign(critical.begin(), critical.end());
      return;
    }
    if (hc.sign() > 0 && lc > 0) {
      lambda = Rational(i128{lc}, 1) / hc;
    } else {
      critical.clear();
    }
  }

  if (!cyclic.empty()) {
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      if (!positive_cycle_at(bg, costs, lambda, scratch)) break;
      const i64 lc = bg.cycle_cost(scratch.bf_cycle);
      const Rational hc = bg.cycle_time(scratch.bf_cycle);
      if (is_infeasible_circuit(lc, hc)) {
        out.status = McrpStatus::Infeasible;
        out.critical_cycle.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        out.iterations += 1;
        return;
      }
      if (hc.sign() <= 0) {
        throw SolverError("exact BF produced a zero-cost zero-time 'positive' circuit");
      }
      Rational candidate = Rational(i128{lc}, 1) / hc;
      if (!(candidate > lambda)) {
        throw SolverError("cycle-ratio improvement made no progress (invariant breach)");
      }
      lambda = std::move(candidate);
      critical.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
      ++out.iterations;
      ++out.exact_iterations;
    }

    // λ == 0 corner: all circuits have zero total cost. Circuits with
    // negative H are then invisible to the improvement loop (their weight is
    // exactly zero at λ = 0) but still make the system infeasible; probe for
    // them with weights -H (L ≡ 0, λ = 1). Also try to surface a zero-ratio
    // critical circuit (weights +H: λ = -1) so callers can run the
    // optimality test.
    if (lambda.is_zero()) {
      if (positive_cycle_at(bg, {}, Rational{1}, scratch)) {
        out.status = McrpStatus::Infeasible;
        out.critical_cycle.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        return;
      }
      if (critical.empty() && positive_cycle_at(bg, {}, Rational{-1}, scratch)) {
        critical.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
      }
    }
  }

  out.status = cyclic.empty() ? McrpStatus::NoCycle : McrpStatus::Optimal;
  if (out.status == McrpStatus::Optimal && critical.empty() && !lambda.is_zero()) {
    throw SolverError("optimal ratio without critical circuit (invariant breach)");
  }
  out.ratio = lambda;
  out.critical_cycle.assign(critical.begin(), critical.end());

  // ---- potentials: valid start times at the optimum ------------------------
  if (options.compute_potentials) {
    compute_mcrp_potentials(bg, lambda, scratch, out.potentials);
  }
}

bool has_positive_cycle(const BivaluedGraph& bg, std::span<const i64> costs,
                        const Rational& lambda, McrpScratch& scratch) {
  const Digraph& g = bg.graph();
  g.finalize();
  if (costs.size() != static_cast<std::size_t>(g.arc_count())) {
    throw SolverError("has_positive_cycle: one cost per arc required");
  }
  if (!core_reusable(bg, scratch)) derive_cyclic_core(bg, scratch);
  return !scratch.cyclic.empty() && positive_cycle_at(bg, costs, lambda, scratch);
}

void compute_mcrp_potentials(const BivaluedGraph& bg, const Rational& lambda,
                             McrpScratch& scratch, std::vector<Rational>& out) {
  const Digraph& g = bg.graph();
  const std::int32_t n = g.node_count();
  g.finalize();
  const std::span<const i64> costs = bg.costs();
  const std::span<const Rational> times = bg.times();
  out.assign(static_cast<std::size_t>(n), Rational{0});
  // Worklist longest-path relaxation over *all* arcs (converges: no
  // positive circuit exists at λ).
  scratch.queued.assign(static_cast<std::size_t>(n), 1);
  RingQueue queue(scratch.ring, n);
  for (std::int32_t v = 0; v < n; ++v) queue.push(v);
  const i128 guard_limit = checked_mul(i128{n} + 1, i128{g.arc_count()} + 1);
  i128 guard = 0;
  while (!queue.empty()) {
    const std::int32_t u = queue.pop();
    scratch.queued[static_cast<std::size_t>(u)] = 0;
    for (const std::int32_t a : g.out_span(u)) {
      if (++guard > guard_limit) {
        throw SolverError("potential relaxation did not converge (invariant breach)");
      }
      const std::int32_t v = g.arc_unchecked(a).dst;
      Rational cand = out[static_cast<std::size_t>(u)] +
                      Rational(i128{costs[static_cast<std::size_t>(a)]}, 1) -
                      lambda * times[static_cast<std::size_t>(a)];
      if (cand > out[static_cast<std::size_t>(v)]) {
        out[static_cast<std::size_t>(v)] = std::move(cand);
        if (!scratch.queued[static_cast<std::size_t>(v)]) {
          scratch.queued[static_cast<std::size_t>(v)] = 1;
          queue.push(v);
        }
      }
    }
  }
}

}  // namespace kp
