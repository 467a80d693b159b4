#include "model/repetition.hpp"

#include <numeric>
#include <vector>

namespace kp {

namespace {

/// The word path's per-thread scratch: per task the reduced rate fraction
/// num/den (den 0 = not visited yet), and the breadth-first visit order,
/// in which each component's tasks form one contiguous run.
struct WordScratch {
  std::vector<i64> num;
  std::vector<i64> den;
  std::vector<TaskId> order;
};

/// The repetition vector on i64 words into `out`. Returns false, leaving
/// `out` unspecified, on any overflow or inconsistency: the caller then
/// runs the Rational reference, which reports either exactly.
bool repetition_on_words(const CsdfGraph& g, RepetitionVector& out) {
  thread_local WordScratch s;
  const auto n = static_cast<std::size_t>(g.task_count());
  s.num.resize(n);
  s.den.assign(n, 0);
  s.order.resize(n);
  out.q.resize(n);
  const std::vector<Buffer>& buffers = g.buffers();
  std::size_t visited = 0;
  for (TaskId root = 0; root < static_cast<TaskId>(n); ++root) {
    if (s.den[static_cast<std::size_t>(root)] != 0) continue;
    const std::size_t begin = visited;
    s.num[static_cast<std::size_t>(root)] = 1;
    s.den[static_cast<std::size_t>(root)] = 1;
    s.order[visited++] = root;
    for (std::size_t head = begin; head < visited; ++head) {
      const auto t = static_cast<std::size_t>(s.order[head]);
      // Every buffer at t forces f_other = f_t * mul / div, checked here
      // against an already visited endpoint.
      const auto relax = [&](TaskId other, i64 mul, i64 div) {
        i64 num = 0;
        i64 den = 0;
        if (__builtin_mul_overflow(s.num[t], mul, &num) ||
            __builtin_mul_overflow(s.den[t], div, &den)) {
          return false;
        }
        const i64 common = std::gcd(num, den);
        num /= common;
        den /= common;
        const auto o = static_cast<std::size_t>(other);
        if (s.den[o] != 0) return s.num[o] == num && s.den[o] == den;
        s.num[o] = num;
        s.den[o] = den;
        s.order[visited++] = other;
        return true;
      };
      for (const BufferId bid : g.out_buffers(static_cast<TaskId>(t))) {
        const Buffer& b = buffers[static_cast<std::size_t>(bid)];
        if (!relax(b.dst, b.total_prod, b.total_cons)) return false;
      }
      for (const BufferId bid : g.in_buffers(static_cast<TaskId>(t))) {
        const Buffer& b = buffers[static_cast<std::size_t>(bid)];
        if (!relax(b.src, b.total_cons, b.total_prod)) return false;
      }
    }
    // Scale the component order[begin, visited) to the smallest integers,
    // q_t = f_t * L with L the lcm of its denominators. No common factor is
    // left to divide out: a prime p dividing every q_t divides q_root = L,
    // but the task whose denominator carries L's full power of p has q_t
    // free of p, since its reduced numerator is.
    i64 lcm = 1;
    for (std::size_t i = begin; i < visited; ++i) {
      const i64 d = s.den[static_cast<std::size_t>(s.order[i])];
      if (__builtin_mul_overflow(lcm / std::gcd(lcm, d), d, &lcm)) return false;
    }
    for (std::size_t i = begin; i < visited; ++i) {
      const auto t = static_cast<std::size_t>(s.order[i]);
      if (__builtin_mul_overflow(s.num[t], lcm / s.den[t], &out.q[t])) return false;
    }
  }
  out.consistent = true;
  out.failure_reason.clear();
  out.sum = 0;
  for (const i64 qt : out.q) out.sum += qt;  // n * 2^63 stays far below 2^127
  return true;
}

}  // namespace

void compute_repetition_vector_into(const CsdfGraph& g, RepetitionVector& out) {
  if (!repetition_on_words(g, out)) out = compute_repetition_vector_rational(g);
}

RepetitionVector compute_repetition_vector(const CsdfGraph& g) {
  RepetitionVector result;
  compute_repetition_vector_into(g, result);
  return result;
}

RepetitionVector compute_repetition_vector_rational(const CsdfGraph& g) {
  RepetitionVector result;
  const std::int32_t n = g.task_count();
  result.q.assign(static_cast<std::size_t>(n), 0);
  if (n == 0) {
    result.consistent = true;
    return result;
  }

  // Fractional rate f_t per task, propagated over the undirected adjacency:
  // buffer (t -> t') forces f_t' = f_t * i_b / o_b.
  std::vector<Rational> f(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> component(static_cast<std::size_t>(n), -1);
  std::int32_t component_count = 0;

  std::vector<TaskId> queue;
  for (TaskId root = 0; root < n; ++root) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    const std::int32_t comp = component_count++;
    f[static_cast<std::size_t>(root)] = Rational{1};
    visited[static_cast<std::size_t>(root)] = true;
    component[static_cast<std::size_t>(root)] = comp;
    queue.clear();
    queue.push_back(root);
    while (!queue.empty()) {
      const TaskId t = queue.back();
      queue.pop_back();
      auto relax = [&](TaskId other, const Rational& required) {
        if (!visited[static_cast<std::size_t>(other)]) {
          visited[static_cast<std::size_t>(other)] = true;
          component[static_cast<std::size_t>(other)] = comp;
          f[static_cast<std::size_t>(other)] = required;
          queue.push_back(other);
        } else if (f[static_cast<std::size_t>(other)] != required) {
          result.consistent = false;
          result.failure_reason = "rate mismatch at task '" + g.task(other).name + "'";
          return false;
        }
        return true;
      };
      for (const BufferId bid : g.out_buffers(t)) {
        const Buffer& b = g.buffer(bid);
        // q_src * i_b = q_dst * o_b  =>  f_dst = f_src * i_b / o_b
        const Rational required =
            f[static_cast<std::size_t>(t)] * Rational(b.total_prod, b.total_cons);
        if (!relax(b.dst, required)) return result;
      }
      for (const BufferId bid : g.in_buffers(t)) {
        const Buffer& b = g.buffer(bid);
        const Rational required =
            f[static_cast<std::size_t>(t)] * Rational(b.total_cons, b.total_prod);
        if (!relax(b.src, required)) return result;
      }
    }
  }

  // Scale each component to the smallest integer vector.
  for (std::int32_t comp = 0; comp < component_count; ++comp) {
    i128 den_lcm = 1;
    for (TaskId t = 0; t < n; ++t) {
      if (component[static_cast<std::size_t>(t)] != comp) continue;
      den_lcm = lcm128(den_lcm, f[static_cast<std::size_t>(t)].den());
    }
    i128 num_gcd = 0;
    std::vector<i128> scaled(static_cast<std::size_t>(n), 0);
    for (TaskId t = 0; t < n; ++t) {
      if (component[static_cast<std::size_t>(t)] != comp) continue;
      const Rational& ft = f[static_cast<std::size_t>(t)];
      const i128 v = checked_mul(ft.num(), den_lcm / ft.den());
      scaled[static_cast<std::size_t>(t)] = v;
      num_gcd = gcd128(num_gcd, v);
    }
    for (TaskId t = 0; t < n; ++t) {
      if (component[static_cast<std::size_t>(t)] != comp) continue;
      result.q[static_cast<std::size_t>(t)] = narrow64(scaled[static_cast<std::size_t>(t)] / num_gcd);
    }
  }

  // Verify every buffer (covers non-tree arcs and multi-arc disagreements).
  for (const Buffer& b : g.buffers()) {
    const i128 lhs = checked_mul(i128{result.q[static_cast<std::size_t>(b.src)]}, i128{b.total_prod});
    const i128 rhs = checked_mul(i128{result.q[static_cast<std::size_t>(b.dst)]}, i128{b.total_cons});
    if (lhs != rhs) {
      result.consistent = false;
      result.failure_reason = "buffer '" + b.name + "' violates q_t*i_b = q_t'*o_b";
      return result;
    }
  }

  result.consistent = true;
  result.sum = 0;
  for (const i64 qt : result.q) result.sum = checked_add(result.sum, i128{qt});
  return result;
}

}  // namespace kp
