#include "mcrp/cycle_ratio.hpp"

#include <algorithm>
#include <cassert>

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
    if (++tail_ == cap_) tail_ = 0;
  }

  std::int32_t pop() noexcept {
    const std::int32_t v = buf_[head_];
    if (++head_ == cap_) head_ = 0;
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
/// relaxation over the cyclic core (scratch.cyclic + its CSR) under
/// per-cyclic-arc weights `w`, on labels `dist`. Returns whether a
/// positive-weight circuit exists; if so, one is left in scratch.bf_cycle.
/// It starts from zero labels with every node that has an out-arc queued,
/// or, when `seeded`, from the labels the caller left in `dist`, queueing
/// the nodes the caller flagged in scratch.queued. The answer does not
/// depend on the start labels; which circuit a "yes" names does.
///
/// Tarjan's subtree disassembly: the parent pointers form a forest kept as
/// one preorder list, circular through the virtual root n (depth -1) whose
/// arcs, weighted by the start labels, make every node a root at first.
/// Before v improves via arc (u, v), v's subtree — the preorder run after v
/// deeper than v — is walked: meeting u there means the tree path v..u plus
/// (u, v) is a positive circuit. Otherwise the run leaves the forest and v
/// is inserted as u's first child. A popped node out of the forest is
/// skipped: an ancestor improved since it was queued, so its label will
/// improve again. Every label therefore stays its root's start label plus
/// the weight of a simple path (at most n-1 arcs), which is the headroom
/// bound integer labels rely on. Labels only rise, so from zero or from
/// kept labels they stay nonnegative.
template <typename Label>
bool positive_cycle(std::int32_t n, McrpScratch& s, const std::vector<Label>& w,
                    std::vector<Label>& dist, bool seeded = false) {
  const auto un = static_cast<std::size_t>(n);
  if (!seeded) dist.assign(un, Label{});
  s.parent.assign(un, -1);
  s.depth.assign(un + 1, 0);
  s.depth[un] = -1;
  s.next.resize(un + 1);
  s.prev.resize(un + 1);
  for (std::size_t v = 0; v <= un; ++v) {
    s.next[v] = static_cast<std::int32_t>(v == un ? 0 : v + 1);
    s.prev[v] = static_cast<std::int32_t>(v == 0 ? un : v - 1);
  }
  if (!seeded) s.queued.assign(un, 0);
  s.bf_cycle.clear();
  RingQueue queue(s.ring, n);
  for (std::int32_t v = 0; v < n; ++v) {
    if (seeded ? s.queued[static_cast<std::size_t>(v)] != 0
               : s.out_offsets[static_cast<std::size_t>(v)] !=
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

/// |l| as an unsigned magnitude (exact for INT64_MIN too).
u64 magnitude(i64 l) noexcept { return l < 0 ? u64{0} - static_cast<u64>(l) : static_cast<u64>(l); }

/// max|l| over `costs` (0 when empty).
u64 max_magnitude(std::span<const i64> costs) noexcept {
  u64 max_cost = 0;
  for (const i64 l : costs) max_cost = std::max(max_cost, magnitude(l));
  return max_cost;
}

/// max|L(e)| over the scratch's cyclic core (0 when `costs` is empty).
i128 max_cyclic_cost(std::span<const i64> costs, const McrpScratch& s) {
  if (costs.empty()) return 0;
  u64 max_cost = 0;
  for (const ArcRef& a : s.cyclic) {
    max_cost = std::max(max_cost, magnitude(costs[static_cast<std::size_t>(a.id)]));
  }
  return max_cost;
}

/// Whether an i64 call at scale `qm` whose weights are bounded by `bound`
/// starts from the kept labels: they must be at that q·M and node count,
/// and leave the headroom max|d0| + (n+1)·bound <= INT64_MAX for every label
/// sum of the call (a label is its start label plus a simple path). If so,
/// they are copied into dist64 and scratch.queued is cleared for the seed.
bool start_from_kept(std::int32_t n, i128 qm, i128 bound, McrpScratch& s) {
  if (s.kept64.size() != static_cast<std::size_t>(n) || s.kept_scale != qm) return false;
  const i64 peak = *std::max_element(s.kept64.begin(), s.kept64.end());  // labels are >= 0
  if (i128{peak} + (i128{n} + 1) * bound > INT64_MAX) {
    ++s.kept_bound_resets;
    return false;
  }
  ++s.kept_starts;
  s.dist64.assign(s.kept64.begin(), s.kept64.end());
  s.queued.assign(static_cast<std::size_t>(n), 0);
  return true;
}

/// True iff some circuit of the cyclic core is positive under
/// w(e) = L(e) - λ·H(e), where L(e) = costs[e], or L ≡ 0 when `costs` is
/// empty; one such circuit is left in scratch.bf_cycle. For λ = p/q the
/// kernel runs on W(e) = L(e)·q·M - p·T(e) = (q·M)·w(e), at the narrowest
/// width whose n+2 headroom holds every W: i64 when the per-call bound
/// max|L|·q·M + |p|·max|T| <= INT64_MAX/(n+2) holds, else i128 when each W
/// passes its check, else Rational (also when the core has no scale M).
/// max|L| is the scratch's when `costs` is bg.costs(); for other costs it
/// is only computed when the time term alone leaves room. The width and
/// q·M are recorded in the scratch (label_width, label_scale).
///
/// Under `reuse` an i64 call starts from the kept labels when
/// start_from_kept admits them, queueing the source of every arc they
/// violate; a "yes" from them is re-run from zero labels, so the circuit is
/// the zero-start one. An i64 "no" under `reuse` keeps its labels. On
/// bg.costs(), the weights and the kept-label test follow the payload
/// delta when their keys allow (see the header comment); other costs drop
/// the weights' key.
bool positive_cycle_at(const BivaluedGraph& bg, std::span<const i64> costs,
                       const Rational& lambda, McrpScratch& s, bool reuse) {
  const std::int32_t n = bg.node_count();
  const std::size_t m = s.cyclic.size();
  const bool graph_costs = !costs.empty() && costs.data() == bg.costs().data();
  if (s.time_scale != 0) {
    const i64 limit64 = INT64_MAX / (i64{n} + 2);
    i128 qm = 0;
    i128 time_term = 0;
    i128 cost_term = 0;
    i128 bound = 0;
    i128 max_cost = graph_costs ? s.max_cost : costs.empty() ? 0 : -1;
    const bool time_fits = try_mul(lambda.den(), s.time_scale, qm) &&
                           try_mul(abs128(lambda.num()), s.max_scaled_time, time_term) &&
                           time_term <= limit64;
    if (time_fits && max_cost < 0) max_cost = max_cyclic_cost(costs, s);
    if (time_fits && try_mul(max_cost, qm, cost_term) && try_add(cost_term, time_term, bound) &&
        bound <= limit64) {
      // Each term is within the bound, so a factor that does not fit an
      // i64 meets a zero co-factor, and the (modular) narrowing is exact.
      const auto qm64 = static_cast<i64>(qm);
      const auto p64 = static_cast<i64>(lambda.num());
      const bool seeded = reuse && start_from_kept(n, qm, bound, s);
      // The graph's own costs are read from their mirror over the core.
      auto weight = [&](std::size_t i) {
        const i64 l = graph_costs    ? s.cost_from[i]
                      : costs.empty() ? 0
                                      : costs[static_cast<std::size_t>(s.cyclic[i].id)];
        return l * qm64 - p64 * static_cast<i64>(s.scaled_time[i]);
      };
      auto test = [&](std::size_t i, i64 w) {
        const ArcRef& a = s.cyclic[i];
        if (s.dist64[static_cast<std::size_t>(a.src)] + w > s.dist64[static_cast<std::size_t>(a.dst)]) {
          s.queued[static_cast<std::size_t>(a.src)] = 1;
        }
      };
      // What is stale in weights64 at this p and q·M: every arc, the arcs
      // `delta` lists (keyed at the payload state it leads from), or none
      // (keyed at the synced state). Kept labels that are a "no" of
      // weights64 can then be violated only by the arcs it recomputes.
      enum Stale { kAll, kDelta, kNone };
      Stale weights = kAll;
      if (graph_costs && s.weights_payload != 0 && s.weights_num == lambda.num() &&
          s.weights_qm == qm) {
        if (s.weights_payload == s.warm_payload) {
          weights = kNone;
        } else if (s.delta_base != 0 && s.weights_payload == s.delta_base) {
          weights = kDelta;
        }
      }
      const bool test_delta = seeded && s.kept_fit_weights && weights != kAll;
      const bool test_all = seeded && !test_delta;
      if (weights == kAll) {
        s.weights64.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          const i64 w = weight(i);
          s.weights64[i] = w;
          if (test_all) test(i, w);
        }
      } else {
        ++s.delta_calls;
        if (weights == kDelta) {
          for (const std::int32_t i : s.delta) {
            s.weights64[static_cast<std::size_t>(i)] = weight(static_cast<std::size_t>(i));
          }
        }
        for (std::size_t i = 0; test_all && i < m; ++i) test(i, s.weights64[i]);
      }
      if (test_delta && weights == kDelta) {
        for (const std::int32_t i : s.delta) {
          test(static_cast<std::size_t>(i), s.weights64[static_cast<std::size_t>(i)]);
        }
      }
#ifndef NDEBUG
      // The delta invariant: every kept weight equals its recomputation,
      // and kept labels tested on the delta alone (or not at all) leave no
      // violated arc's source unqueued.
      for (std::size_t i = 0; weights != kAll && i < m; ++i) {
        assert(s.weights64[i] == weight(i));
        const ArcRef& a = s.cyclic[i];
        assert(!test_delta || s.queued[static_cast<std::size_t>(a.src)] != 0 ||
               !(s.dist64[static_cast<std::size_t>(a.src)] + s.weights64[i] >
                 s.dist64[static_cast<std::size_t>(a.dst)]));
      }
#endif
      s.weights_num = lambda.num();
      s.weights_qm = qm;
      s.weights_payload = graph_costs ? s.warm_payload : 0;
      s.label_width = McrpScratch::LabelWidth::I64;
      s.label_scale = qm;
      bool found = positive_cycle(n, s, s.weights64, s.dist64, seeded);
      if (found && seeded) {
        ++s.kept_reruns;
        found = positive_cycle(n, s, s.weights64, s.dist64);
      }
      if (reuse && !found) {
        s.kept64.assign(s.dist64.begin(), s.dist64.end());
        s.kept_scale = qm;
        s.kept_fit_weights = true;
      } else if (weights != kNone) {
        s.kept_fit_weights = false;
      }
      return found;
    }
    // Per arc, the products only need to be exact (INT128_MIN is a valid
    // intermediate here); the headroom check then bounds W itself.
    const i128 limit = k_i128_max / (i128{n} + 2);
    bool fits = !__builtin_mul_overflow(lambda.den(), s.time_scale, &qm);
    s.weights128.resize(m);
    for (std::size_t i = 0; fits && i < m; ++i) {
      const i64 l = costs.empty() ? 0 : costs[static_cast<std::size_t>(s.cyclic[i].id)];
      i128 cost = 0;
      i128 time = 0;
      i128& w = s.weights128[i];
      fits = !__builtin_mul_overflow(i128{l}, qm, &cost) &&
             !__builtin_mul_overflow(lambda.num(), s.scaled_time[i], &time) &&
             !__builtin_sub_overflow(cost, time, &w) && w <= limit && w >= -limit;
    }
    if (fits) {
      s.label_width = McrpScratch::LabelWidth::I128;
      s.label_scale = qm;
      return positive_cycle(n, s, s.weights128, s.dist128);
    }
    // Scaled weights too large: fall through to Rational labels.
  }
  const std::span<const Rational> times = bg.times();
  s.weights.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto id = static_cast<std::size_t>(s.cyclic[i].id);
    s.weights[i] = (costs.empty() ? Rational{} : Rational{costs[id]}) - lambda * times[id];
  }
  s.label_width = McrpScratch::LabelWidth::Exact;
  s.label_scale = 1;
  return positive_cycle(n, s, s.weights, s.dist);
}

/// True if the circuit makes the constraint system unsatisfiable for every
/// positive period: H(c) < 0, or H(c) == 0 with L(c) > 0.
bool is_infeasible_circuit(i64 cost, const Rational& time) {
  return time.sign() < 0 || (time.is_zero() && cost > 0);
}

/// Drops the payload keys: the next i64 call recomputes every weight and
/// tests every arc against the kept labels (which stay usable as start
/// labels).
void drop_payload_keys(McrpScratch& s) noexcept {
  s.weights_payload = 0;
  s.delta_base = 0;
}

/// (Re)derives the scratch's SCC-restricted cyclic core, the arc-to-core
/// index, the core's CSR adjacency and its mirrored L with max|L| for `bg`
/// (whose Digraph must be finalized), recording the topology key so a
/// later topology-matching solve or positive-cycle check keeps them. With
/// `every_arc` the core is the whole graph and no SCC pass runs (the
/// potentials pass). The scaled H is left stale: scale_cyclic_times
/// follows, and drops the payload keys.
void derive_cyclic_core(const BivaluedGraph& bg, McrpScratch& scratch, bool every_arc) {
  const Digraph& g = bg.graph();
  const std::int32_t n = g.node_count();
  scratch.warm_topology = 0;
  // Circuits live inside strongly connected components; restrict the
  // cycle search to arcs whose endpoints share an SCC.
  if (!every_arc) strongly_connected_components(g, scratch.scc, scratch.scc_result);
  const SccResult& scc = scratch.scc_result;
  scratch.cyclic.clear();
  scratch.cost_from.clear();
  scratch.cyclic_index.resize(static_cast<std::size_t>(g.arc_count()));
  const std::span<const Digraph::Arc> all_arcs = g.arcs();
  const std::span<const i64> costs = bg.costs();
  for (std::int32_t a = 0; a < g.arc_count(); ++a) {
    const auto& e = all_arcs[static_cast<std::size_t>(a)];
    const bool in_core = every_arc || scc.component_of[static_cast<std::size_t>(e.src)] ==
                                          scc.component_of[static_cast<std::size_t>(e.dst)];
    scratch.cyclic_index[static_cast<std::size_t>(a)] =
        in_core ? static_cast<std::int32_t>(scratch.cyclic.size()) : -1;
    if (in_core) {
      scratch.cyclic.push_back(ArcRef{a, e.src, e.dst});
      scratch.cost_from.push_back(costs[static_cast<std::size_t>(a)]);
    }
  }
  scratch.max_cost = max_magnitude(scratch.cost_from);
  if (!scratch.cyclic.empty()) {
    build_csr_index(n, scratch.cyclic, [](const ArcRef& a) { return a.src; },
                    scratch.out_offsets, scratch.out_ids, scratch.cursor);
  }
  scratch.warm_topology = bg.topology_stamp();
  scratch.warm_nodes = n;
  scratch.warm_arcs = g.arc_count();
}

/// Scales cyclic arc i's T(e) from its H `h` under the scratch's M: a new
/// denominator (or, with `fresh`, every one) gets the factor M/den, false
/// when it does not divide M; then T(e) = num·factor, false on overflow.
bool rescale_arc(std::size_t i, const Rational& h, McrpScratch& s, bool fresh) {
  Rational& from = s.scaled_from[i];
  if (fresh || h.den() != from.den()) {
    if (!fresh && s.time_scale % h.den() != 0) return false;
    s.scale_factor[i] = s.time_scale / h.den();
  }
  if (!try_mul(h.num(), s.scale_factor[i], s.scaled_time[i])) return false;
  from = h;
  return true;
}

/// Scales T(e) = num·(M/den) over the cyclic core under the scratch's M,
/// with max|T(e)|. Unless `fresh` (every arc scaled anew), an arc whose H
/// is the one it was scaled from keeps its T(e), and the others go through
/// rescale_arc. False (state partly rewritten) when some denominator does
/// not divide M or some T(e) overflows: M must then be re-derived.
bool rescale_cyclic_times(std::span<const Rational> times, McrpScratch& s, bool fresh) {
  i128 max_time = 0;
  for (std::size_t i = 0; i < s.cyclic.size(); ++i) {
    const Rational& h = times[static_cast<std::size_t>(s.cyclic[i].id)];
    if ((fresh || h != s.scaled_from[i]) && !rescale_arc(i, h, s, fresh)) return false;
    max_time = std::max(max_time, abs128(s.scaled_time[i]));
  }
  s.max_scaled_time = max_time;
  return true;
}

/// Derives M afresh as the lcm of the cyclic H denominators and scales
/// every T(e) under it, or sets M to 0 (no integer path) when M or some
/// T(e) overflows. Every T(e) may move, so the payload keys are dropped.
void scale_cyclic_times(std::span<const Rational> times, McrpScratch& s) {
  drop_payload_keys(s);
  const std::size_t m = s.cyclic.size();
  s.scaled_time.resize(m);
  s.scaled_from.resize(m);
  s.scale_factor.resize(m);
  try {
    i128 scale = 1;
    for (const ArcRef& a : s.cyclic) {
      const i128 den = times[static_cast<std::size_t>(a.id)].den();
      if (scale % den != 0) scale = lcm128(scale, den);
    }
    s.time_scale = scale;
  } catch (const OverflowError&) {
    s.time_scale = 0;
    return;
  }
  if (!rescale_cyclic_times(times, s, true)) s.time_scale = 0;
}

/// Mirrors the graph's L over the cyclic core into the scratch, with max|L|.
void sync_cyclic_costs(std::span<const i64> costs, McrpScratch& s) {
  for (std::size_t i = 0; i < s.cyclic.size(); ++i) {
    s.cost_from[i] = costs[static_cast<std::size_t>(s.cyclic[i].id)];
  }
  s.max_cost = max_magnitude(s.cost_from);
}

/// Applies the logged edits `arcs` (arc ids, possibly repeated or off the
/// core) to the scratch's mirrored L and scaled H under the kept M, keeping
/// max|L| and max|T| exact (rescanned only when an edited arc held the
/// maximum and fell), and lists each cyclic arc whose L or H moved in
/// s.delta. False (state partly rewritten) when an H edit needs M
/// re-derived: no integer M is kept, or rescale_arc refused.
bool apply_edits(const BivaluedGraph& bg, std::span<const std::int32_t> arcs, McrpScratch& s) {
  const std::span<const i64> costs = bg.costs();
  const std::span<const Rational> times = bg.times();
  // Folds an arc's move from |was| to |now| into the running maximum.
  auto track = [](i128 was, i128 now, i128& max, bool& rescan) {
    if (now >= max) {
      max = now;
    } else if (was == max) {
      rescan = true;
    }
  };
  bool rescan_cost = false;
  bool rescan_time = false;
  for (const std::int32_t id : arcs) {
    const std::int32_t i = s.cyclic_index[static_cast<std::size_t>(id)];
    if (i < 0) continue;
    const auto ui = static_cast<std::size_t>(i);
    bool moved = false;
    const i64 l = costs[static_cast<std::size_t>(id)];
    if (l != s.cost_from[ui]) {
      track(magnitude(s.cost_from[ui]), magnitude(l), s.max_cost, rescan_cost);
      s.cost_from[ui] = l;
      moved = true;
    }
    const Rational& h = times[static_cast<std::size_t>(id)];
    if (h != s.scaled_from[ui]) {
      const i128 was = abs128(s.scaled_time[ui]);
      if (s.time_scale == 0 || !rescale_arc(ui, h, s, false)) return false;
      track(was, abs128(s.scaled_time[ui]), s.max_scaled_time, rescan_time);
      moved = true;
    }
    if (moved) s.delta.push_back(i);
  }
  if (rescan_cost) s.max_cost = max_magnitude(s.cost_from);
  if (rescan_time) {
    i128 max_time = 0;
    for (const i128 t : s.scaled_time) max_time = std::max(max_time, abs128(t));
    s.max_scaled_time = max_time;
  }
  return true;
}

/// Brings the scratch's cyclic core, its CSR, its scaled H and its mirrored
/// L up to date for `bg`, and records bg's payload stamp. With `reuse`, the
/// core and CSR are kept when the scratch derived them from a graph of this
/// topology (same arc list; payloads free). The payload state then moves by
/// the arcs bg's edit log names since the scratch's payload stamp, listed
/// in scratch.delta; when the log cannot tell (or an edit needs M
/// re-derived), every cyclic arc is re-read and the payload keys are
/// dropped. Without
/// `reuse` everything is derived afresh and the kept labels are dropped, so
/// every kernel call of a cold solve starts from zero labels.
void prepare_cyclic_core(const BivaluedGraph& bg, McrpScratch& s, bool reuse) {
  if (!reuse) s.kept64.clear();
  const bool same_topology = reuse && s.warm_topology != 0 &&
                             s.warm_topology == bg.topology_stamp() &&
                             s.warm_nodes == bg.graph().node_count() &&
                             s.warm_arcs == bg.graph().arc_count();
  const std::span<const Rational> times = bg.times();
  s.delta.clear();
  if (!same_topology) {
    derive_cyclic_core(bg, s, false);
    s.delta.reserve(s.cyclic.size());  // one entry per cyclic arc at most
    scale_cyclic_times(times, s);
  } else {
    const auto edits = bg.edits_since(s.warm_payload);
    s.delta_base = s.warm_payload;
    if (!edits || !apply_edits(bg, *edits, s)) {
      // Every cyclic arc re-read: the kept M where it still covers them
      // (an edit apply_edits refused fails here too), else a fresh one.
      drop_payload_keys(s);
      if (s.time_scale == 0 || !rescale_cyclic_times(times, s, false)) scale_cyclic_times(times, s);
      sync_cyclic_costs(bg.costs(), s);
    }
  }
  s.warm_payload = bg.payload_stamp();
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
  out.iterations = 0;
  out.exact_iterations = 0;

  bg.graph().finalize();
  const std::span<const i64> costs = bg.costs();

  // The cyclic core and its CSR depend only on the topology, and its scaled
  // H on H as well: a warm solve keeps the former under a matching
  // topology stamp and updates the latter for the arcs the graph's edit log
  // names. Recorded unconditionally after a cold derivation so a later warm
  // call can reuse it.
  const bool warm = options.howard_warm_start;
  prepare_cyclic_core(bg, scratch, warm);
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
    while (positive_cycle_at(bg, costs, lambda, scratch, warm)) {
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
      if (positive_cycle_at(bg, {}, Rational{1}, scratch, warm)) {
        out.status = McrpStatus::Infeasible;
        out.critical_cycle.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        return;
      }
      if (critical.empty() && positive_cycle_at(bg, {}, Rational{-1}, scratch, warm)) {
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
}

bool has_positive_cycle(const BivaluedGraph& bg, std::span<const i64> costs,
                        const Rational& lambda, McrpScratch& scratch) {
  const Digraph& g = bg.graph();
  g.finalize();
  if (costs.size() != static_cast<std::size_t>(g.arc_count())) {
    throw SolverError("has_positive_cycle: one cost per arc required");
  }
  prepare_cyclic_core(bg, scratch, true);
  return !scratch.cyclic.empty() && positive_cycle_at(bg, costs, lambda, scratch, true);
}

void compute_mcrp_potentials(const BivaluedGraph& bg, const Rational& lambda,
                             std::vector<Rational>& out) {
  bg.graph().finalize();
  const auto n = static_cast<std::size_t>(bg.node_count());
  out.assign(n, Rational{0});
  if (bg.arc_count() == 0) return;  // the kernel's CSR needs an arc
  // One kernel call over every arc from zero labels: with no positive
  // circuit at λ it ends at the least nonnegative potentials, scaled by the
  // call's q·M. Zero start labels are what make them least: a relaxation
  // from other labels ends at a solution above its start, so the call runs
  // without reuse, on a scratch that holds no kept labels.
  McrpScratch s;
  derive_cyclic_core(bg, s, true);
  scale_cyclic_times(bg.times(), s);
  if (positive_cycle_at(bg, bg.costs(), lambda, s, false)) {
    throw SolverError("potential relaxation did not converge (invariant breach)");
  }
  using enum McrpScratch::LabelWidth;
  for (std::size_t v = 0; v < n; ++v) {
    out[v] = s.label_width == I64    ? Rational(i128{s.dist64[v]}, s.label_scale)
             : s.label_width == I128 ? Rational(s.dist128[v], s.label_scale)
                                     : s.dist[v];
  }
}

}  // namespace kp
