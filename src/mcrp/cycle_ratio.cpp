#include "mcrp/cycle_ratio.hpp"

#include <algorithm>
#include <cmath>

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

/// Finds any cycle in the parent-pointer graph (node -> src of its parent
/// arc). Writes the cycle's arc indices (into scratch.cyclic) in forward
/// traversal order to scratch.cycle_local; returns false if acyclic.
bool parent_graph_cycle(std::int32_t n, McrpScratch& s) {
  s.color.assign(static_cast<std::size_t>(n), 0);  // 0 new, 1 active, 2 done
  s.cycle_local.clear();
  for (std::int32_t start = 0; start < n; ++start) {
    if (s.color[static_cast<std::size_t>(start)] != 0 ||
        s.parent[static_cast<std::size_t>(start)] < 0) {
      continue;
    }
    s.path.clear();
    std::int32_t v = start;
    while (v >= 0 && s.color[static_cast<std::size_t>(v)] == 0) {
      s.color[static_cast<std::size_t>(v)] = 1;
      s.path.push_back(v);
      const std::int32_t pa = s.parent[static_cast<std::size_t>(v)];
      v = pa < 0 ? -1 : s.cyclic[static_cast<std::size_t>(pa)].src;
    }
    if (v >= 0 && s.color[static_cast<std::size_t>(v)] == 1) {
      // Cycle: the suffix of `path` starting at v. The walk visits cycle
      // nodes in reverse traversal order, so collecting each node's parent
      // arc while iterating the path backwards (stopping at v, then adding
      // v's own parent arc) yields the forward arc order.
      for (auto rit = s.path.rbegin(); rit != s.path.rend() && *rit != v; ++rit) {
        s.cycle_local.push_back(s.parent[static_cast<std::size_t>(*rit)]);
      }
      s.cycle_local.push_back(s.parent[static_cast<std::size_t>(v)]);
      for (const std::int32_t u : s.path) s.color[static_cast<std::size_t>(u)] = 2;
      return true;
    }
    for (const std::int32_t u : s.path) s.color[static_cast<std::size_t>(u)] = 2;
  }
  return false;
}

/// Queue-based (SPFA-style) longest-path relaxation with all-zero sources
/// over the cyclic core (scratch.cyclic + its CSR). Detects whether a
/// positive-weight cycle exists under scratch.weights and extracts one into
/// scratch.bf_cycle (original arc ids). Near-linear on the no-positive-cycle
/// case that dominates the improvement loop, O(n·m) worst case like
/// round-based Bellman–Ford.
bool bf_positive_cycle(std::int32_t n, McrpScratch& s) {
  s.dist.assign(static_cast<std::size_t>(n), Rational{});
  s.parent.assign(static_cast<std::size_t>(n), -1);
  // Relaxation-path length per node: when it reaches n, the parent chain
  // holds n+1 nodes, hence a repeated node, hence a (positive) cycle.
  s.len.assign(static_cast<std::size_t>(n), 0);
  s.queued.assign(static_cast<std::size_t>(n), 0);
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
    const auto lo = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u)]);
    const auto hi = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u) + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::int32_t i = s.out_ids[k];
      const ArcRef& a = s.cyclic[static_cast<std::size_t>(i)];
      Rational cand = s.dist[static_cast<std::size_t>(a.src)] + s.weights[static_cast<std::size_t>(i)];
      if (!(cand > s.dist[static_cast<std::size_t>(a.dst)])) continue;
      s.dist[static_cast<std::size_t>(a.dst)] = std::move(cand);
      s.parent[static_cast<std::size_t>(a.dst)] = i;
      s.len[static_cast<std::size_t>(a.dst)] = s.len[static_cast<std::size_t>(a.src)] + 1;
      if (s.len[static_cast<std::size_t>(a.dst)] >= n) {
        if (!parent_graph_cycle(n, s)) {
          throw SolverError("positive-cycle detection: parent graph acyclic (invariant breach)");
        }
        s.bf_cycle.reserve(s.cycle_local.size());
        for (const std::int32_t local : s.cycle_local) {
          s.bf_cycle.push_back(s.cyclic[static_cast<std::size_t>(local)].id);
        }
        return true;
      }
      if (!s.queued[static_cast<std::size_t>(a.dst)]) {
        s.queued[static_cast<std::size_t>(a.dst)] = 1;
        queue.push(a.dst);
      }
    }
  }
  return false;
}

/// bf_positive_cycle with pre-scaled integer weights (scratch.int_weights):
/// identical worklist relaxation, but the labels are plain i128 — no
/// rational normalization per step. The caller guarantees label sums
/// cannot overflow ((n+1)·max|weight| fits i128 with headroom).
bool bf_positive_cycle_int(std::int32_t n, McrpScratch& s) {
  s.int_dist.assign(static_cast<std::size_t>(n), 0);
  s.parent.assign(static_cast<std::size_t>(n), -1);
  s.len.assign(static_cast<std::size_t>(n), 0);
  s.queued.assign(static_cast<std::size_t>(n), 0);
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
    const auto lo = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u)]);
    const auto hi = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u) + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::int32_t i = s.out_ids[k];
      const ArcRef& a = s.cyclic[static_cast<std::size_t>(i)];
      const i128 cand =
          s.int_dist[static_cast<std::size_t>(a.src)] + s.int_weights[static_cast<std::size_t>(i)];
      if (!(cand > s.int_dist[static_cast<std::size_t>(a.dst)])) continue;
      s.int_dist[static_cast<std::size_t>(a.dst)] = cand;
      s.parent[static_cast<std::size_t>(a.dst)] = i;
      s.len[static_cast<std::size_t>(a.dst)] = s.len[static_cast<std::size_t>(a.src)] + 1;
      if (s.len[static_cast<std::size_t>(a.dst)] >= n) {
        if (!parent_graph_cycle(n, s)) {
          throw SolverError("positive-cycle detection: parent graph acyclic (invariant breach)");
        }
        s.bf_cycle.reserve(s.cycle_local.size());
        for (const std::int32_t local : s.cycle_local) {
          s.bf_cycle.push_back(s.cyclic[static_cast<std::size_t>(local)].id);
        }
        return true;
      }
      if (!s.queued[static_cast<std::size_t>(a.dst)]) {
        s.queued[static_cast<std::size_t>(a.dst)] = 1;
        queue.push(a.dst);
      }
    }
  }
  return false;
}

/// True if the circuit makes the constraint system unsatisfiable for every
/// positive period: H(c) < 0, or H(c) == 0 with L(c) > 0.
bool is_infeasible_circuit(i64 cost, const Rational& time) {
  return time.sign() < 0 || (time.is_zero() && cost > 0);
}

/// (Re)derives the scratch's SCC-restricted cyclic core and its CSR
/// adjacency for `bg` (whose Digraph must be finalized), recording the warm
/// key so a later stamp-matching solve or positive-cycle check reuses them.
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
  scratch.warm_stamp = bg.layout_stamp();
  scratch.warm_nodes = n;
  scratch.warm_arcs = g.arc_count();
}

/// True when the scratch's cyclic core + CSR were derived from a graph with
/// this exact layout (node/arc topology and H payloads; L costs free).
bool core_reusable(const BivaluedGraph& bg, const McrpScratch& scratch) {
  return scratch.warm_stamp != 0 && scratch.warm_stamp == bg.layout_stamp() &&
         scratch.warm_nodes == bg.graph().node_count() &&
         scratch.warm_arcs == bg.graph().arc_count();
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
  out.howard_iterations = 0;

  const Digraph& g = bg.graph();
  const std::int32_t n = g.node_count();
  g.finalize();
  const std::span<const i64> costs = bg.costs();
  const std::span<const Rational> times = bg.times();

  // The cyclic core and its CSR depend only on topology, which the layout
  // stamp certifies unchanged (only L costs may have been rewritten via
  // set_cost since the scratch last saw this graph) — so a warm solve
  // skips the SCC pass and both derivations. Recorded unconditionally
  // after a cold derivation so a later warm call can reuse it.
  const bool reuse_core = options.howard_warm_start && core_reusable(bg, scratch);
  if (!reuse_core) derive_cyclic_core(bg, scratch);
  auto& cyclic = scratch.cyclic;

  Rational lambda{0};
  auto& critical = scratch.critical;
  critical.clear();

  auto exact_cycle_ratio = [&](std::span<const std::int32_t> cycle, i64& cost_out,
                               Rational& time_out) {
    cost_out = bg.cycle_cost(cycle);
    time_out = bg.cycle_time(cycle);
  };

  if (!cyclic.empty()) {
    // ---- accelerated phase: Howard warm start ------------------------------
    // Double-precision policy iteration usually lands on (or next to) the
    // critical circuit; its candidate's *exact* ratio seeds λ so the exact
    // phase typically needs a single confirming pass. Purely best-effort:
    // any numeric trouble just falls through to the exact phase.
    if (options.accelerate_with_double) {
      try {
        howard_max_ratio(bg, kHowardDefaultMaxIterations, scratch.howard, scratch.howard_result,
                         options.howard_warm_start);
        const HowardResult& howard = scratch.howard_result;
        out.howard_iterations = howard.iterations;
        if (!howard.cycle.empty()) {
          i64 lc = 0;
          Rational hc;
          exact_cycle_ratio(howard.cycle, lc, hc);
          if (is_infeasible_circuit(lc, hc)) {
            out.status = McrpStatus::Infeasible;
            out.critical_cycle.assign(howard.cycle.begin(), howard.cycle.end());
            out.iterations = howard.iterations;
            return;
          }
          if (hc.sign() > 0) {
            Rational candidate = Rational(i128{lc}, 1) / hc;
            if (candidate > lambda) {
              lambda = std::move(candidate);
              critical.assign(howard.cycle.begin(), howard.cycle.end());
            }
          }
          out.iterations += howard.iterations;
        }
      } catch (const SolverError&) {
        // fall through to the exact phase from λ = 0
      }
    }

    // ---- exact phase: the result is determined here ------------------------
    auto& we = scratch.weights;
    we.resize(cyclic.size());
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      for (std::size_t i = 0; i < cyclic.size(); ++i) {
        const std::int32_t id = cyclic[i].id;
        we[i] = Rational(i128{costs[static_cast<std::size_t>(id)]}, 1) -
                lambda * times[static_cast<std::size_t>(id)];
      }
      if (!bf_positive_cycle(n, scratch)) break;
      i64 lc = 0;
      Rational hc;
      exact_cycle_ratio(scratch.bf_cycle, lc, hc);
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
    // them with weights -H. Also try to surface a zero-ratio critical
    // circuit (weights +H) so callers can run the optimality test.
    if (lambda.is_zero()) {
      for (std::size_t i = 0; i < cyclic.size(); ++i) {
        we[i] = -times[static_cast<std::size_t>(cyclic[i].id)];
      }
      if (bf_positive_cycle(n, scratch)) {
        out.status = McrpStatus::Infeasible;
        out.critical_cycle.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        return;
      }
      if (critical.empty()) {
        for (std::size_t i = 0; i < cyclic.size(); ++i) {
          we[i] = times[static_cast<std::size_t>(cyclic[i].id)];
        }
        if (bf_positive_cycle(n, scratch)) {
          critical.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        }
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

bool has_positive_cycle(const BivaluedGraph& bg, std::span<const Rational> weights,
                        McrpScratch& scratch) {
  const Digraph& g = bg.graph();
  g.finalize();
  if (weights.size() != static_cast<std::size_t>(g.arc_count())) {
    throw SolverError("has_positive_cycle: one weight per arc required");
  }
  if (!core_reusable(bg, scratch)) derive_cyclic_core(bg, scratch);
  if (scratch.cyclic.empty()) return false;
  const std::int32_t n = g.node_count();

  // Integer fast path: scale every cyclic weight by the lcm of their
  // denominators — a positive factor, so every cycle's weight keeps its
  // sign and positive-cycle existence is unchanged — then relax plain i128
  // labels. Bails to the rational Bellman–Ford when the common denominator
  // or the scaled magnitudes leave no headroom for label sums
  // (|label| <= (n+1)·max|weight| must stay clear of the i128 range).
  try {
    i128 common = 1;
    for (const McrpScratch::ArcRef& a : scratch.cyclic) {
      common = lcm128(common, weights[static_cast<std::size_t>(a.id)].den());
    }
    auto& iw = scratch.int_weights;
    iw.resize(scratch.cyclic.size());
    i128 max_abs = 0;
    for (std::size_t i = 0; i < scratch.cyclic.size(); ++i) {
      const Rational& w = weights[static_cast<std::size_t>(scratch.cyclic[i].id)];
      iw[i] = checked_mul(w.num(), common / w.den());
      max_abs = std::max(max_abs, abs128(iw[i]));
    }
    constexpr i128 k_i128_max = static_cast<i128>((~static_cast<unsigned __int128>(0)) >> 1);
    if (max_abs > k_i128_max / (i128{n} + 2)) throw_overflow("has_positive_cycle scale");
    return bf_positive_cycle_int(n, scratch);
  } catch (const OverflowError&) {
    // Magnitudes too large to scale: fall through to exact rationals.
  }

  auto& we = scratch.weights;
  we.resize(scratch.cyclic.size());
  for (std::size_t i = 0; i < scratch.cyclic.size(); ++i) {
    we[i] = weights[static_cast<std::size_t>(scratch.cyclic[i].id)];
  }
  return bf_positive_cycle(n, scratch);
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
