#include "core/constraints.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace kp {

namespace {

/// a mod g in [0, g) for g > 0 (C++ % rounds toward zero).
constexpr i128 pmod(i128 a, i128 g) noexcept {
  const i128 r = a % g;
  return r < 0 ? r + g : r;
}

/// Inverse of a modulo m (gcd(a, m) == 1, m >= 1, 0 <= a < m).
i128 mod_inverse(i128 a, i128 m) {
  i128 old_r = a, r = m;
  i128 old_s = 1, s = 0;
  while (r != 0) {
    const i128 q = old_r / r;
    i128 tmp = old_r - q * r;
    old_r = r;
    r = tmp;
    tmp = old_s - q * s;
    old_s = s;
    s = tmp;
  }
  if (old_r != 1) throw SolverError("mod_inverse: arguments not coprime (invariant breach)");
  return pmod(old_s, m);
}

/// The buffers one build covers: g's own, then the caller's extra ones, whose
/// ids continue after g's. Every per-buffer loop below walks this one
/// sequence, so (g, extra) is emitted, fingerprinted, diffed and priced
/// exactly like a graph that owned all of these buffers in this order.
class BufferSeq {
 public:
  BufferSeq(const CsdfGraph& g, std::span<const Buffer> extra)
      : own_(g.buffers()), extra_(extra) {}

  [[nodiscard]] std::size_t size() const noexcept { return own_.size() + extra_.size(); }
  [[nodiscard]] const Buffer& operator[](std::size_t i) const noexcept {
    return i < own_.size() ? own_[i] : extra_[i - own_.size()];
  }

 private:
  std::span<const Buffer> own_;
  std::span<const Buffer> extra_;
};

/// Validates (g, rv, k) and lays out the duplicated-phase node space into
/// `cg` (k, task_first_node, resized node maps, reset graph), reusing its
/// storage. The node maps are left for the caller to fill (fill_task_nodes)
/// or block-copy from a previous layout (layout_nodes_for_patch).
void layout_node_space(const CsdfGraph& g, const RepetitionVector& rv,
                       const std::vector<i64>& k, ConstraintGraph& cg) {
  if (!rv.consistent) throw ModelError("constraint graph requires a consistent CSDFG");
  if (static_cast<std::int32_t>(k.size()) != g.task_count()) {
    throw ModelError("periodicity vector must have one entry per task");
  }
  for (const i64 kt : k) {
    if (kt < 1) throw ModelError("periodicity factors must be >= 1");
  }

  cg.k.assign(k.begin(), k.end());

  // Allocate one node per duplicated phase <t_p̃, 1>, p̃ in 1..K_t·φ(t).
  i128 total_nodes = 0;
  cg.task_first_node.resize(static_cast<std::size_t>(g.task_count()));
  for (TaskId t = 0; t < g.task_count(); ++t) {
    cg.task_first_node[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(total_nodes);
    total_nodes = checked_add(
        total_nodes, checked_mul(i128{k[static_cast<std::size_t>(t)]}, i128{g.phases(t)}));
    if (total_nodes > (i128{1} << 30)) {
      throw SolverError("constraint graph too large (node count)");
    }
  }
  const auto n = static_cast<std::int32_t>(total_nodes);
  cg.node_task.resize(static_cast<std::size_t>(n));
  cg.node_phase.resize(static_cast<std::size_t>(n));
  cg.node_iter.resize(static_cast<std::size_t>(n));
  cg.graph.reset(n);
}

/// Writes task t's node-map span for the layout `k` encodes.
void fill_task_nodes(const CsdfGraph& g, const std::vector<i64>& k, TaskId t,
                     ConstraintGraph& cg) {
  const std::int32_t phi = g.phases(t);
  std::int32_t node = cg.task_first_node[static_cast<std::size_t>(t)];
  for (std::int32_t iter = 1; iter <= k[static_cast<std::size_t>(t)]; ++iter) {
    for (std::int32_t p = 1; p <= phi; ++p, ++node) {
      cg.node_task[static_cast<std::size_t>(node)] = t;
      cg.node_phase[static_cast<std::size_t>(node)] = p;
      cg.node_iter[static_cast<std::size_t>(node)] = iter;
    }
  }
}

/// Full node layout, shared by the stride and reference generators.
void init_constraint_nodes(const CsdfGraph& g, const RepetitionVector& rv,
                           const std::vector<i64>& k, ConstraintGraph& cg) {
  layout_node_space(g, rv, k, cg);
  for (TaskId t = 0; t < g.task_count(); ++t) fill_task_nodes(g, k, t, cg);
}

/// Poll bookkeeping shared across the buffers of one build or patch: the
/// countdown spans buffer boundaries so the effective poll cadence is one
/// check per `row_stride` producer rows regardless of buffer sizes.
struct EmitState {
  const ConstraintPoll* poll = nullptr;
  i64 stride = 0;  // 0 = polling disabled
  i64 rows_until_poll = 0;

  explicit EmitState(const ConstraintPoll* p) : poll(p) {
    if (poll != nullptr && poll->fn != nullptr) {
      stride = std::max<i64>(poll->row_stride, 1);
      rows_until_poll = stride;
    }
  }
};

/// Appends buffer `b`'s useful constraints to `out` via the stride
/// enumeration (see the header comment), with node ids from `first_node`,
/// the task_first_node map of the layout `k` gives (init_constraint_nodes),
/// and `out` holding at least that layout's nodes. Arcs land at the end of
/// the arc list, which is what keeps each buffer's arcs contiguous — the
/// span structure the incremental engine records. Returns false iff the
/// poll aborted mid-buffer (`out` is then partial).
bool emit_buffer_arcs(const CsdfGraph& g, const RepetitionVector& rv, const Buffer& b,
                      const std::vector<i64>& k, std::span<const std::int32_t> first_node,
                      BivaluedGraph& out, EmitState& st) {
  const TaskId t = b.src;
  const TaskId t2 = b.dst;
  const i64 kt = k[static_cast<std::size_t>(t)];
  const i64 kt2 = k[static_cast<std::size_t>(t2)];
  const std::int32_t phi = g.phases(t);
  const std::int32_t phi2 = g.phases(t2);
  const i128 i_dup = checked_mul(i128{kt}, i128{b.total_prod});    // ĩ_b
  const i128 o_dup = checked_mul(i128{kt2}, i128{b.total_cons});   // õ_b
  const i128 gcd_dup = gcd128(i_dup, o_dup);
  // Denominator of H with the global lcm(K) factor folded out: q_t · i_b.
  const i128 h_den = checked_mul(i128{rv.of(t)}, i128{b.total_prod});

  // Residue structure of the consumer-iteration progression modulo γ.
  const i128 o_mod = pmod(i128{b.total_cons}, gcd_dup);
  const i128 d = gcd128(o_mod, gcd_dup);      // gcd(0, γ) == γ
  const i128 j_stride = gcd_dup / d;          // solutions repeat every γ/d
  // γ divides kt2·o_b, so γ/d divides kt2 — j_stride < 2^30 by the
  // node-count guard and every (v/d)·inv product below fits easily.
  const bool stride_usable = o_mod != 0;
  const i128 inv =
      stride_usable && j_stride > 1 ? mod_inverse((o_mod / d) % j_stride, j_stride) : 0;

  const i64 rows = checked_mul(kt, i64{phi});
  const std::int32_t first2 = first_node[static_cast<std::size_t>(t2)];
  for (i64 pt = 1; pt <= rows; ++pt) {
    if (st.stride != 0 && --st.rows_until_poll <= 0) {
      if (st.poll->should_stop()) return false;
      st.rows_until_poll = st.stride;
    }
    const auto p = static_cast<std::int32_t>((pt - 1) % phi) + 1;
    const i128 cum_in = checked_add(
        checked_mul(i128{(pt - 1) / phi}, i128{b.total_prod}),
        i128{b.cum_prod[static_cast<std::size_t>(p)]});
    const i64 in_p = b.prod[static_cast<std::size_t>(p - 1)];
    const i64 dur = g.duration(t, p);
    const std::int32_t src_node =
        first_node[static_cast<std::size_t>(t)] + static_cast<std::int32_t>(pt - 1);
    // Q̃(p̃,p̃') - 1 = cum_out + A with A independent of p̃'.
    const i128 a_off =
        checked_sub(checked_sub(i128{in_p}, cum_in), checked_add(i128{b.initial_tokens}, 1));

    for (std::int32_t p2 = 1; p2 <= phi2; ++p2) {
      const i64 out_p2 = b.cons[static_cast<std::size_t>(p2 - 1)];
      const i64 m = std::min(in_p, out_p2);
      if (m <= 0) continue;  // min rate 0: α > β for every iteration
      const i128 base = checked_add(i128{b.cum_cons[static_cast<std::size_t>(p2)]}, a_off);
      const i128 c = pmod(base, gcd_dup);
      if (o_mod == 0 && c >= i128{m}) continue;  // constant residue, always dead
      const i128 t_window = std::min(i128{m}, gcd_dup);
      const std::int32_t dst0 = first2 + (p2 - 1);

      // Candidate residues t in [0, t_window) with t ≡ c (mod d); the
      // dense walk beats solving them when kt2 is the smaller count.
      if (!stride_usable || i128{kt2} <= t_window / d + 1) {
        i128 q1 = base;   // Q̃ - 1 for iteration j
        i128 res = c;     // q1 mod γ
        for (i64 j = 0; j < kt2; ++j) {
          if (res < i128{m}) {
            out.add_arc(src_node, dst0 + static_cast<std::int32_t>(j) * phi2, dur,
                        Rational(-(q1 - res), h_den));
          }
          q1 = checked_add(q1, i128{b.total_cons});
          res += o_mod;
          if (res >= gcd_dup) res -= gcd_dup;
        }
      } else {
        for (i128 tt = c % d; tt < t_window; tt += d) {
          // Solve j·(o_b mod γ) ≡ tt - c (mod γ): j ≡ (v/d)·inv (mod γ/d).
          const i128 v = pmod(tt - c, gcd_dup);
          const i128 j0 = ((v / d) % j_stride) * inv % j_stride;
          for (i128 j = j0; j < i128{kt2}; j += j_stride) {
            const i128 q1 = checked_add(base, checked_mul(j, i128{b.total_cons}));
            out.add_arc(src_node, dst0 + static_cast<std::int32_t>(j) * phi2, dur,
                        Rational(-(q1 - tt), h_den));
          }
        }
      }
    }
  }
  return true;
}

// ---- content snapshot (cross-variant cache keying) --------------------------

/// Records the exact model content the companion graph encodes: the words
/// append_content_snapshot writes for (g, extra), where their buffer
/// triples and rate section start, and q per task (cleared and refilled in
/// place — re-snapshotting allocates nothing once warm).
void snapshot_model(const CsdfGraph& g, std::span<const Buffer> extra, const RepetitionVector& rv,
                    ConstraintGraphCache& cache) {
  cache.key.clear();
  append_content_snapshot(g, cache.key, extra);
  // Layout: task count, phase counts, durations, buffer count, triples.
  cache.buffers_at = static_cast<std::size_t>(2 + g.task_count() + g.total_phases());
  cache.rates_at = cache.buffers_at + 3 * (g.buffers().size() + extra.size());
  cache.key_q.assign(rv.q.begin(), rv.q.end());
}

/// After a patch round: rewrites in place only the snapshot words the diff
/// saw move — the durations of tasks flagged in task_recost (when
/// `durations`), and the marking word and rate vectors of buffers flagged
/// in buf_touched plus q (when `buffers`). The graph has the snapshot's
/// shape, and phase counts and endpoints fix every entry's length, so
/// every offset stays where it is.
void refresh_snapshot(const CsdfGraph& g, const BufferSeq& bufs, const RepetitionVector& rv,
                      ConstraintGraphCache& cache, bool durations, bool buffers) {
  if (durations) {
    // Durations follow the task count and the phase counts.
    auto at = cache.key.begin() + 1 + g.task_count();
    for (std::size_t t = 0; t < cache.task_recost.size(); ++t) {
      const std::vector<i64>& dur = g.tasks()[t].durations;
      if (cache.task_recost[t] != 0) std::copy(dur.begin(), dur.end(), at);
      at += static_cast<std::ptrdiff_t>(dur.size());
    }
  }
  if (buffers) {
    auto at = cache.key.begin() + static_cast<std::ptrdiff_t>(cache.rates_at);
    for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
      const Buffer& b = bufs[bid];
      if (cache.buf_touched[bid] != 0) {
        cache.key[cache.buffers_at + 3 * bid + 2] = b.initial_tokens;
        std::copy(b.cons.begin(), b.cons.end(), std::copy(b.prod.begin(), b.prod.end(), at));
      }
      at += static_cast<std::ptrdiff_t>(b.prod.size() + b.cons.size());
    }
    // A buffer whose producer's q moved was touched, so its arcs now carry
    // the new q. A stale entry would match again once q moves back, and a
    // span built under the other q would be spliced as current.
    cache.key_q.assign(rv.q.begin(), rv.q.end());
  }
}

/// True iff buffer `bid`'s content fingerprint — marking, producer q, rate
/// vectors — matches the snapshot (endpoint K is diffed separately).
/// `rate_at` indexes the buffer's first rate word in the snapshot (start at
/// cache.rates_at) and advances past its rate words either way. This is
/// THE buffer classification: build_constraint_graph_incremental and
/// constraint_patch_work_estimate share it so the kiter resource guard
/// prices exactly what the patch will do.
bool buffer_content_matches(const ConstraintGraphCache& cache, const Buffer& b, std::size_t bid,
                            const RepetitionVector& rv, std::size_t& rate_at) {
  bool same = cache.key[cache.buffers_at + 3 * bid + 2] == b.initial_tokens &&
              cache.key_q[static_cast<std::size_t>(b.src)] == rv.of(b.src);
  if (same) {
    const auto base = cache.key.begin() + static_cast<std::ptrdiff_t>(rate_at);
    same = std::equal(b.prod.begin(), b.prod.end(), base) &&
           std::equal(b.cons.begin(), b.cons.end(),
                      base + static_cast<std::ptrdiff_t>(b.prod.size()));
  }
  rate_at += b.prod.size() + b.cons.size();
  return same;
}

/// True iff `g` has the shape the snapshot describes: same task and buffer
/// counts, same phase counts, same endpoints. Only same-shaped graphs are
/// diffable — the node layout and buffer emission order line up, so every
/// difference is expressible per buffer.
bool shape_matches(const CsdfGraph& g, const BufferSeq& bufs, const ConstraintGraphCache& cache) {
  const std::vector<i64>& key = cache.key;
  if (key.empty() || key[0] != g.task_count()) return false;
  for (std::size_t t = 0; t < g.tasks().size(); ++t) {
    if (key[1 + t] != g.tasks()[t].phases()) return false;
  }
  // Equal phase counts put the buffer count word just before the triples.
  const std::size_t nbuf = bufs.size();
  if (key[cache.buffers_at - 1] != static_cast<i64>(nbuf)) return false;
  for (std::size_t b = 0; b < nbuf; ++b) {
    const std::size_t at = cache.buffers_at + 3 * b;
    if (key[at] != bufs[b].src || key[at + 1] != bufs[b].dst) return false;
  }
  return true;
}

/// Rewrites the L payloads of buffer arcs [lo, hi) of `cg` from the
/// producer's (new) durations; endpoints, H and the CSR stay verbatim.
void recost_span(const CsdfGraph& g, ConstraintGraph& cg, TaskId producer, std::int32_t lo,
                 std::int32_t hi) {
  const std::vector<i64>& dur = g.tasks()[static_cast<std::size_t>(producer)].durations;
  for (std::int32_t a = lo; a < hi; ++a) {
    const std::int32_t v = cg.graph.graph().arc_unchecked(a).src;
    cg.graph.set_cost(a, dur[static_cast<std::size_t>(cg.node_phase[static_cast<std::size_t>(v)]) - 1]);
  }
}

/// Patch-path replacement for init_constraint_nodes: lays out the node
/// space for `k` into `out`, block-copying (memmove) the node-map spans of
/// every layout-unchanged task from `prev` instead of rewriting them
/// element-wise. `prev` must share `g`'s shape and agree on K wherever
/// `layout_changed` is 0.
void layout_nodes_for_patch(const CsdfGraph& g, const RepetitionVector& rv,
                            const std::vector<i64>& k, const ConstraintGraph& prev,
                            ConstraintGraph& out, const std::vector<std::int8_t>& layout_changed) {
  layout_node_space(g, rv, k, out);
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const auto idx = static_cast<std::size_t>(t);
    if (layout_changed[idx] != 0) {
      fill_task_nodes(g, k, t, out);
      continue;
    }
    const auto len = static_cast<std::ptrdiff_t>(k[idx]) * g.phases(t);
    const auto first = static_cast<std::ptrdiff_t>(out.task_first_node[idx]);
    const auto pfirst = static_cast<std::ptrdiff_t>(prev.task_first_node[idx]);
    std::copy_n(prev.node_task.begin() + pfirst, len, out.node_task.begin() + first);
    std::copy_n(prev.node_phase.begin() + pfirst, len, out.node_phase.begin() + first);
    std::copy_n(prev.node_iter.begin() + pfirst, len, out.node_iter.begin() + first);
  }
}

/// Emits every structurally touched buffer's arcs into cache.aside against
/// the live graph's node layout — for a round that keeps every task's K,
/// the layout of (g, k) — and records buffer b's aside span as
/// [aside_arc_begin[b], aside_arc_begin[b+1]) (empty when untouched).
/// Returns false iff the poll aborted.
bool emit_touched_aside(const CsdfGraph& g, const RepetitionVector& rv, const BufferSeq& bufs,
                        const std::vector<i64>& k, const ConstraintGraph& cg,
                        ConstraintGraphCache& cache, EmitState& st) {
  cache.aside.reset(cg.graph.node_count());
  cache.aside_arc_begin.resize(bufs.size() + 1);
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    cache.aside_arc_begin[bid] = cache.aside.arc_count();
    if (cache.buf_touched[bid] != 0 &&
        !emit_buffer_arcs(g, rv, bufs[bid], k, cg.task_first_node, cache.aside, st)) {
      return false;
    }
  }
  cache.aside_arc_begin[bufs.size()] = cache.aside.arc_count();
  return true;
}

/// The in-place round: when every touched buffer's aside span has its live
/// span's arc count and endpoints, arc for arc, copies the aside L and H
/// payloads over the live span and rewrites L over the untouched spans of
/// producers whose durations moved. Node maps, spans, endpoints and the
/// CSR stay as they are; the topology stamp survives, and the graph's edit
/// log names only the arcs whose L or H moved (set_cost ignores an
/// unchanged cost, and set_time is skipped where H is unchanged).
/// Returns false, having written nothing, when some touched span changed
/// shape.
bool rewrite_in_place(const CsdfGraph& g, const BufferSeq& bufs, ConstraintGraph& cg,
                      ConstraintGraphCache& cache) {
  const std::span<const Digraph::Arc> live = cg.graph.graph().arcs();
  const std::span<const Digraph::Arc> aside = cache.aside.graph().arcs();
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    if (cache.buf_touched[bid] != 0 &&
        !std::equal(live.begin() + cache.buf_arc_begin[bid],
                    live.begin() + cache.buf_arc_begin[bid + 1],
                    aside.begin() + cache.aside_arc_begin[bid],
                    aside.begin() + cache.aside_arc_begin[bid + 1])) {
      return false;
    }
  }
  const std::span<const i64> costs = cache.aside.costs();
  const std::span<const Rational> times = cache.aside.times();
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    const std::int32_t lo = cache.buf_arc_begin[bid];
    const std::int32_t hi = cache.buf_arc_begin[bid + 1];
    if (cache.buf_touched[bid] != 0) {
      auto from = static_cast<std::size_t>(cache.aside_arc_begin[bid]);
      for (std::int32_t a = lo; a < hi; ++a, ++from) {
        cg.graph.set_cost(a, costs[from]);
        if (!(cg.graph.times()[static_cast<std::size_t>(a)] == times[from])) {
          cg.graph.set_time(a, times[from]);
        }
      }
    } else if (cache.task_recost[static_cast<std::size_t>(bufs[bid].src)] != 0) {
      recost_span(g, cg, bufs[bid].src, lo, hi);
    }
  }
  return true;
}

/// Upper bound on the stride generator's work for one buffer at (kt, kt2):
/// the O(rows·φ(t')) base scan plus the residue-structure bound on
/// surviving arcs (see constraint_work_estimate).
i128 buffer_stride_work(const Buffer& b, i64 kt, i64 kt2) {
  const i128 gcd_dup = gcd128(checked_mul(i128{kt}, i128{b.total_prod}),
                              checked_mul(i128{kt2}, i128{b.total_cons}));
  const i128 o_mod = pmod(i128{b.total_cons}, gcd_dup);
  const i128 d = gcd128(o_mod, gcd_dup);
  i128 work = 0;
  for (const i64 in_p : b.prod) {
    for (const i64 out_p2 : b.cons) {
      const i64 m = std::min(in_p, out_p2);
      i128 per_row = 1;  // the base scan visits every (row, consumer phase)
      if (m > 0) {
        if (o_mod == 0) {
          // Constant residue per row: every consumer iteration may
          // survive, and without per-row residues there is no tighter
          // sound bound — price the worst case.
          per_row += i128{kt2};
        } else {
          // At most A+1 valid residues t (t ≡ c mod d in a window of
          // min(m,γ)), each hit by exactly B = kt2·d/γ iterations
          // (γ/d divides kt2), so (A+1)·B bounds the surviving arcs.
          const i128 a_cnt = std::min(i128{m}, gcd_dup) / d;
          const i128 b_cnt = checked_mul(i128{kt2}, d) / gcd_dup;
          per_row += std::min(i128{kt2},
                              checked_add(checked_mul(a_cnt, b_cnt), b_cnt));
        }
      }
      work = checked_add(work, checked_mul(i128{kt}, per_row));
    }
  }
  return work;
}

}  // namespace

void append_content_snapshot(const CsdfGraph& g, std::vector<i64>& words,
                             std::span<const Buffer> extra) {
  // Counts are included so two graphs of different shape can never alias
  // (the per-section lengths are content-derived otherwise).
  const BufferSeq bufs(g, extra);
  words.push_back(g.task_count());
  for (const Task& t : g.tasks()) words.push_back(t.phases());
  for (const Task& t : g.tasks()) {
    words.insert(words.end(), t.durations.begin(), t.durations.end());
  }
  words.push_back(static_cast<i64>(bufs.size()));
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    words.push_back(bufs[bid].src);
    words.push_back(bufs[bid].dst);
    words.push_back(bufs[bid].initial_tokens);
  }
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    const Buffer& b = bufs[bid];
    words.insert(words.end(), b.prod.begin(), b.prod.end());
    words.insert(words.end(), b.cons.begin(), b.cons.end());
  }
}

std::vector<TaskId> ConstraintGraph::tasks_on_circuit(
    const std::vector<std::int32_t>& arc_ids) const {
  std::vector<std::int8_t> seen;
  std::vector<TaskId> out;
  tasks_on_circuit_into(arc_ids, seen, out);
  return out;
}

void ConstraintGraph::tasks_on_circuit_into(std::span<const std::int32_t> arc_ids,
                                            std::vector<std::int8_t>& seen,
                                            std::vector<TaskId>& out) const {
  seen.assign(task_first_node.size(), 0);
  out.clear();
  auto add = [&](TaskId t) {
    if (seen[static_cast<std::size_t>(t)] == 0) {
      seen[static_cast<std::size_t>(t)] = 1;
      out.push_back(t);
    }
  };
  for (const std::int32_t a : arc_ids) {
    const auto& arc = graph.graph().arc(a);
    add(node_task[static_cast<std::size_t>(arc.src)]);
    add(node_task[static_cast<std::size_t>(arc.dst)]);
  }
}

std::string ConstraintGraph::describe_circuit(const CsdfGraph& g,
                                              const std::vector<std::int32_t>& arc_ids) const {
  std::string out;
  for (const std::int32_t a : arc_ids) {
    const auto& arc = graph.graph().arc(a);
    const auto src = static_cast<std::size_t>(arc.src);
    if (!out.empty()) out += " -> ";
    out += g.task(node_task[src]).name + "_" + std::to_string(node_phase[src]) + "^" +
           std::to_string(node_iter[src]);
  }
  if (!arc_ids.empty()) {
    const auto& first = graph.graph().arc(arc_ids.front());
    const auto src = static_cast<std::size_t>(first.src);
    out += " -> " + g.task(node_task[src]).name + "_" + std::to_string(node_phase[src]) + "^" +
           std::to_string(node_iter[src]);
  }
  return out;
}

i128 constraint_pair_count(const CsdfGraph& g, const std::vector<i64>& k,
                           std::span<const Buffer> extra) {
  const BufferSeq bufs(g, extra);
  i128 pairs = 0;
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    const Buffer& b = bufs[bid];
    const i128 rows = checked_mul(i128{k[static_cast<std::size_t>(b.src)]},
                                  i128{g.phases(b.src)});
    const i128 cols = checked_mul(i128{k[static_cast<std::size_t>(b.dst)]},
                                  i128{g.phases(b.dst)});
    pairs = checked_add(pairs, checked_mul(rows, cols));
  }
  return pairs;
}

i128 constraint_work_estimate(const CsdfGraph& g, const std::vector<i64>& k,
                              std::span<const Buffer> extra) {
  const BufferSeq bufs(g, extra);
  i128 work = 0;
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    const Buffer& b = bufs[bid];
    work = checked_add(work, buffer_stride_work(b, k[static_cast<std::size_t>(b.src)],
                                                k[static_cast<std::size_t>(b.dst)]));
  }
  return work;
}

i128 constraint_patch_work_estimate(const CsdfGraph& g, const RepetitionVector& rv,
                                    const std::vector<i64>& k_from, const std::vector<i64>& k,
                                    const ConstraintGraphCache& cache,
                                    std::span<const Buffer> extra) {
  const BufferSeq bufs(g, extra);
  const std::size_t nbuf = bufs.size();
  if (!cache.valid || k_from.size() != k.size() ||
      k.size() != static_cast<std::size_t>(g.task_count()) ||
      cache.buf_arc_begin.size() != nbuf + 1 || !shape_matches(g, bufs, cache)) {
    return constraint_work_estimate(g, k, extra);
  }
  i128 work = 0;
  std::size_t rate_at = cache.rates_at;
  for (std::size_t idx = 0; idx < nbuf; ++idx) {
    const Buffer& b = bufs[idx];
    const auto src = static_cast<std::size_t>(b.src);
    const auto dst = static_cast<std::size_t>(b.dst);
    const bool untouched = buffer_content_matches(cache, b, idx, rv, rate_at) &&
                           k_from[src] == k[src] && k_from[dst] == k[dst];
    if (untouched) {
      // Untouched (a durations-only change included — the L rewrite is a
      // copy-cost walk): priced at the exact cost of its recorded span.
      work = checked_add(work, i128{cache.buf_arc_begin[idx + 1] - cache.buf_arc_begin[idx]});
    } else {
      work = checked_add(work, buffer_stride_work(b, k[src], k[dst]));
    }
  }
  return work;
}

bool build_constraint_graph_into(const CsdfGraph& g, const RepetitionVector& rv,
                                 const std::vector<i64>& k, ConstraintGraph& cg,
                                 const ConstraintPoll* poll, std::span<const Buffer> extra) {
  const BufferSeq bufs(g, extra);
  init_constraint_nodes(g, rv, k, cg);
  // Per buffer, emit exactly the useful (p̃, p̃') pairs. With
  // γ = gcd(ĩ_b, õ_b), Q̃ - 1 = cum_out(p̃') + A(p̃) and a pair is useful
  // iff (Q̃ - 1) mod γ < m = min(ĩn(p̃), õut(p̃')); then
  // β̃ = (Q̃ - 1) - ((Q̃ - 1) mod γ). For a fixed producer phase p̃ and a
  // fixed *original* consumer phase p', cum_out over the K_t' duplicated
  // copies is an arithmetic progression base + j·o_b (j = 0..K_t'-1), so
  // the residues (j·o_b + base) mod γ cycle with stride structure: the
  // valid j form arithmetic progressions of stride γ/gcd(o_b, γ), solved
  // by one modular inverse per buffer (emit_buffer_arcs).
  EmitState st(poll);
  for (std::size_t bid = 0; bid < bufs.size(); ++bid) {
    if (!emit_buffer_arcs(g, rv, bufs[bid], k, cg.task_first_node, cg.graph, st)) return false;
  }
  cg.graph.graph().finalize();
  return true;
}

bool build_constraint_graph_incremental(const CsdfGraph& g, const RepetitionVector& rv,
                                        const std::vector<i64>& k, ConstraintGraph& cg,
                                        ConstraintGraphCache& cache, const ConstraintPoll* poll,
                                        std::span<const Buffer> extra) {
  const BufferSeq bufs(g, extra);
  const std::size_t nbuf = bufs.size();
  const auto ntasks = static_cast<std::size_t>(g.task_count());

  // Diff (g, k) against the cached content snapshot. The patch paths need a
  // valid span record for a same-shaped graph.
  bool patch = cache.valid && cg.k.size() == k.size() && k.size() == ntasks &&
               cache.buf_arc_begin.size() == nbuf + 1 && shape_matches(g, bufs, cache);
  bool any_recost = false;   // some task's durations moved (L payloads)
  bool any_content = false;  // some buffer's marking/q/rates moved
  bool aside = false;        // the touched buffers' arcs sit in cache.aside
  i64 touched = 0;           // buffers re-enumerated this round
  // Refresh only the snapshot entries the diff saw move: a pure-K round
  // (the K-Iter common case) proved the whole snapshot still current.
  auto finish_patch = [&] {
    refresh_snapshot(g, bufs, rv, cache, any_recost, any_content);
    cache.last_regenerated_buffers = touched;
  };
  if (patch) {
    // Per task: did its K change (node layout) / did its durations change
    // (L payloads of its out-buffers)?
    cache.task_touched.assign(ntasks, 0);
    cache.task_recost.assign(ntasks, 0);
    bool any_layout = false;
    std::size_t dur_at = 1 + ntasks;  // past the task count and phase counts
    for (std::size_t t = 0; t < ntasks; ++t) {
      if (cg.k[t] != k[t]) {
        cache.task_touched[t] = 1;
        any_layout = true;
      }
      const std::vector<i64>& dur = g.tasks()[t].durations;
      if (!std::equal(dur.begin(), dur.end(),
                      cache.key.begin() + static_cast<std::ptrdiff_t>(dur_at))) {
        cache.task_recost[t] = 1;
        any_recost = true;
      }
      dur_at += dur.size();
    }

    // Per buffer: did anything that shapes its arcs change — endpoint K,
    // marking, producer q, rates? The content check runs even for buffers a
    // K change already touched: `any_content` decides whether the buffer
    // snapshot must be refreshed at all (pure-K rounds, the K-Iter common
    // case, skip it entirely).
    cache.buf_touched.assign(nbuf, 0);
    std::size_t rate_at = cache.rates_at;
    for (std::size_t bid = 0; bid < nbuf; ++bid) {
      const Buffer& b = bufs[bid];
      const bool content_moved = !buffer_content_matches(cache, b, bid, rv, rate_at);
      any_content |= content_moved;
      if (content_moved || cache.task_touched[static_cast<std::size_t>(b.src)] != 0 ||
          cache.task_touched[static_cast<std::size_t>(b.dst)] != 0) {
        cache.buf_touched[bid] = 1;
        ++touched;
      }
    }

    if (!any_layout && !any_recost && touched == 0) return true;  // cg already encodes (g, k)
    // A round that re-enumerates every buffer buys nothing from patching:
    // it rebuilds (the worst case: the critical circuit covered every task).
    patch = touched < static_cast<i64>(nbuf);
    if (patch && !any_layout) {
      // Every task keeps its K, so the node layout stays and only the
      // touched buffers' spans can differ. Emit them aside, once: if each
      // keeps its arc count and endpoints, the round is a payload rewrite
      // on the live graph — no relayout, no splice, no CSR rebuild. A pure
      // execution-time delta is the zero-touched-buffer case. Otherwise the
      // splice below takes the touched spans from the aside graph.
      EmitState st(poll);
      if (!emit_touched_aside(g, rv, bufs, k, cg, cache, st)) {
        // cg still holds the previous round's intact graph, but it does not
        // encode (g, k): force the next build down the cold path.
        cache.invalidate();
        return false;
      }
      if (rewrite_in_place(g, bufs, cg, cache)) {
        finish_patch();
        ++cache.payload_rounds;
        return true;
      }
      aside = true;
    }
  }

  if (!patch) {
    // Cold start / fallback: a recorded full rebuild (the reference path,
    // plus the per-buffer arc spans and the content snapshot the next
    // round will diff against).
    cache.valid = false;  // cg is partial until the build completes
    init_constraint_nodes(g, rv, k, cg);
    cache.buf_arc_begin.resize(nbuf + 1);
    EmitState st(poll);
    for (std::size_t bid = 0; bid < nbuf; ++bid) {
      cache.buf_arc_begin[bid] = cg.graph.arc_count();
      if (!emit_buffer_arcs(g, rv, bufs[bid], k, cg.task_first_node, cg.graph, st)) return false;
    }
    cache.buf_arc_begin[nbuf] = cg.graph.arc_count();
    cg.graph.graph().finalize();
    snapshot_model(g, extra, rv, cache);
    cache.valid = true;
    ++cache.rebuilt_rounds;
    cache.last_regenerated_buffers = static_cast<i64>(nbuf);
    return true;
  }

  // Splice path: lay out the new node space in the scratch graph (node-map
  // spans of layout-unchanged tasks block-copied from the live graph), then
  // walk the buffers in id order — take the structurally touched ones from
  // the aside graph or regenerate them, splice the rest over with the
  // constant node-id shift their tasks' layout change induces (rewriting L
  // payloads where only the producer's durations moved). Buffer order is
  // what the full build uses, so the result is arc-for-arc identical to a
  // fresh build.
  ConstraintGraph& scratch = cache.scratch;
  layout_nodes_for_patch(g, rv, k, cg, scratch, cache.task_touched);
  cache.node_delta.resize(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    cache.node_delta[t] = scratch.task_first_node[t] - cg.task_first_node[t];
  }
  cache.scratch_arc_begin.resize(nbuf + 1);
  EmitState st(poll);
  for (std::size_t bid = 0; bid < nbuf; ++bid) {
    const Buffer& b = bufs[bid];
    const std::int32_t lo = scratch.graph.arc_count();
    cache.scratch_arc_begin[bid] = lo;
    if (cache.buf_touched[bid] == 0) {
      scratch.graph.append_arcs_shifted(
          cg.graph, cache.buf_arc_begin[bid], cache.buf_arc_begin[bid + 1],
          cache.node_delta[static_cast<std::size_t>(b.src)],
          cache.node_delta[static_cast<std::size_t>(b.dst)]);
      if (cache.task_recost[static_cast<std::size_t>(b.src)] != 0) {
        recost_span(g, scratch, b.src, lo, scratch.graph.arc_count());
      }
    } else if (aside) {
      scratch.graph.append_arcs_shifted(cache.aside, cache.aside_arc_begin[bid],
                                        cache.aside_arc_begin[bid + 1], 0, 0);
    } else if (!emit_buffer_arcs(g, rv, b, k, scratch.task_first_node, scratch.graph, st)) {
      cache.invalidate();  // as on an aside abort: cg does not encode (g, k)
      return false;
    }
  }
  cache.scratch_arc_begin[nbuf] = scratch.graph.arc_count();

  // One counting pass, as a rebuild does: the fill walks arcs in id order,
  // so the adjacency is a fresh build's.
  scratch.graph.graph().finalize();

  // Ping-pong: the patched scratch becomes the live graph; the old graph's
  // storage becomes the next patch's splice target (capacity retained on
  // both sides — warm patched rounds allocate nothing).
  std::swap(cg, scratch);
  cache.buf_arc_begin.swap(cache.scratch_arc_begin);
  finish_patch();
  ++cache.patched_rounds;
  return true;
}

ConstraintGraph build_constraint_graph(const CsdfGraph& g, const RepetitionVector& rv,
                                       const std::vector<i64>& k, std::span<const Buffer> extra) {
  ConstraintGraph cg;
  (void)build_constraint_graph_into(g, rv, k, cg, nullptr, extra);
  return cg;
}

ConstraintGraph build_constraint_graph_reference(const CsdfGraph& g, const RepetitionVector& rv,
                                                 const std::vector<i64>& k) {
  ConstraintGraph cg;
  build_constraint_graph_reference_into(g, rv, k, cg);
  return cg;
}

void build_constraint_graph_reference_into(const CsdfGraph& g, const RepetitionVector& rv,
                                           const std::vector<i64>& k, ConstraintGraph& cg) {
  init_constraint_nodes(g, rv, k, cg);

  // One candidate constraint per (p̃, p̃') pair of each buffer.
  for (BufferId bid = 0; bid < g.buffer_count(); ++bid) {
    const Buffer& b = g.buffer(bid);
    const TaskId t = b.src;
    const TaskId t2 = b.dst;
    const i64 kt = k[static_cast<std::size_t>(t)];
    const i64 kt2 = k[static_cast<std::size_t>(t2)];
    const std::int32_t phi = g.phases(t);
    const std::int32_t phi2 = g.phases(t2);
    const i128 i_dup = checked_mul(i128{kt}, i128{b.total_prod});    // ĩ_b
    const i128 o_dup = checked_mul(i128{kt2}, i128{b.total_cons});   // õ_b
    const i128 gcd_dup = gcd128(i_dup, o_dup);
    const i128 h_den = checked_mul(i128{rv.of(t)}, i128{b.total_prod});

    const i64 rows = checked_mul(kt, i64{phi});
    const i64 cols = checked_mul(kt2, i64{phi2});
    for (i64 pt = 1; pt <= rows; ++pt) {
      const auto p = static_cast<std::int32_t>((pt - 1) % phi) + 1;
      const i128 cum_in = checked_add(
          checked_mul(i128{(pt - 1) / phi}, i128{b.total_prod}),
          i128{b.cum_prod[static_cast<std::size_t>(p)]});
      const i64 in_p = b.prod[static_cast<std::size_t>(p - 1)];
      const i64 dur = g.duration(t, p);
      const std::int32_t src_node =
          cg.task_first_node[static_cast<std::size_t>(t)] + static_cast<std::int32_t>(pt - 1);

      for (i64 pt2 = 1; pt2 <= cols; ++pt2) {
        const auto p2 = static_cast<std::int32_t>((pt2 - 1) % phi2) + 1;
        const i128 cum_out = checked_add(
            checked_mul(i128{(pt2 - 1) / phi2}, i128{b.total_cons}),
            i128{b.cum_cons[static_cast<std::size_t>(p2)]});
        const i64 out_p2 = b.cons[static_cast<std::size_t>(p2 - 1)];

        // Q̃(p̃,p̃') = Õa<t'_p̃',1> - Ĩa<t_p̃,1> - M0(b) + ĩn_b(p̃)
        const i128 q_val = cum_out - cum_in - i128{b.initial_tokens} + i128{in_p};
        const i128 alpha =
            ceil_to_multiple(q_val - i128{std::min(in_p, out_p2)}, gcd_dup);
        const i128 beta = floor_to_multiple(q_val - 1, gcd_dup);
        if (alpha > beta) continue;  // no useful constraint for this pair

        const std::int32_t dst_node =
            cg.task_first_node[static_cast<std::size_t>(t2)] + static_cast<std::int32_t>(pt2 - 1);
        cg.graph.add_arc(src_node, dst_node, dur, Rational(-beta, h_den));
      }
    }
  }
  // Same finalize as the stride generator, so head-to-head build timings
  // (bench_hotpath) cover identical work including the CSR pass.
  cg.graph.graph().finalize();
}

}  // namespace kp
