#include "core/regions.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace kp {

Rational CriticalCycleCert::evaluate(const CsdfGraph& g) const {
  i128 num = 0;
  for (const Coeff& c : coeffs) {
    const std::vector<i64>& d = g.task(c.task).durations;
    num = checked_add(num, checked_mul(i128{c.count}, i128{d[static_cast<std::size_t>(c.phase - 1)]}));
  }
  return Rational(num, 1) / cycle_time;
}

std::string CriticalCycleCert::describe(const CsdfGraph& g) const {
  if (coeffs.empty()) return "";
  std::string out = "(";
  bool first = true;
  for (const Coeff& c : coeffs) {
    if (!first) out += " + ";
    first = false;
    if (c.count != 1) out += std::to_string(c.count) + "·";
    out += "d(" + g.task(c.task).name;
    if (g.phases(c.task) > 1) out.append(",").append(std::to_string(c.phase));
    out += ")";
  }
  out += ") / " + cycle_time.to_string();
  return out;
}

CriticalCycleCert extract_critical_cycle_cert(const ConstraintGraph& cg, const McrpResult& solved,
                                              std::vector<std::int8_t>& seen) {
  CriticalCycleCert cert;
  if (solved.status != McrpStatus::Optimal || solved.ratio.sign() <= 0 ||
      solved.critical_cycle.empty()) {
    return cert;
  }
  // A circuit of L arcs visits L nodes, so at most L (task, phase) terms
  // and L distinct tasks: one allocation each.
  const std::size_t len = solved.critical_cycle.size();
  cert.coeffs.reserve(len);
  cert.tasks.reserve(std::min(len, cg.task_first_node.size()));
  for (const std::int32_t a : solved.critical_cycle) {
    const std::int32_t src = cg.graph.graph().arc(a).src;
    const TaskId t = cg.node_task[static_cast<std::size_t>(src)];
    const std::int32_t p = cg.node_phase[static_cast<std::size_t>(src)];
    auto it = std::find_if(cert.coeffs.begin(), cert.coeffs.end(),
                           [&](const CriticalCycleCert::Coeff& c) {
                             return c.task == t && c.phase == p;
                           });
    if (it == cert.coeffs.end()) {
      cert.coeffs.push_back({t, p, 1});
    } else {
      ++it->count;
    }
  }
  std::sort(cert.coeffs.begin(), cert.coeffs.end(),
            [](const CriticalCycleCert::Coeff& a, const CriticalCycleCert::Coeff& b) {
              return a.task != b.task ? a.task < b.task : a.phase < b.phase;
            });
  cg.tasks_on_circuit_into(solved.critical_cycle, seen, cert.tasks);
  cert.k = cg.k;
  cert.cycle_cost = cg.graph.cycle_cost(solved.critical_cycle);
  cert.cycle_time = cg.graph.cycle_time(solved.critical_cycle);
  if (cert.cycle_time.sign() <= 0 ||
      solved.ratio != Rational(i128{cert.cycle_cost}, 1) / cert.cycle_time) {
    throw SolverError("critical-cycle cert does not reproduce the solved ratio (invariant breach)");
  }
  cert.ratio = solved.ratio;
  return cert;
}

CriticalCycleCert extract_critical_cycle_cert(const ConstraintGraph& cg,
                                              const McrpResult& solved) {
  std::vector<std::int8_t> seen;
  return extract_critical_cycle_cert(cg, solved, seen);
}

void RegionCertifier::prepare(const ConstraintGraph& cg, const CriticalCycleCert& cert,
                              const ExecTimeRay& ray, i64 s_anchor) {
  cg_ = &cg;
  cert_ = &cert;
  s_anchor_ = s_anchor;
  // Task -> axis lookup; tasks off every axis have constant durations.
  const std::size_t task_count = cg.task_first_node.size();
  std::vector<const ExecTimeRay::Axis*> axis_of(task_count, nullptr);
  for (const ExecTimeRay::Axis& axis : ray.axes) {
    if (axis.task >= 0 && static_cast<std::size_t>(axis.task) < task_count) {
      axis_of[static_cast<std::size_t>(axis.task)] = &axis;
    }
  }
  const Digraph& g = cg.graph.graph();
  arc_slope_.assign(static_cast<std::size_t>(g.arc_count()), 0);
  for (std::int32_t a = 0; a < g.arc_count(); ++a) {
    const std::int32_t src = g.arc_unchecked(a).src;
    const auto* axis = axis_of[static_cast<std::size_t>(cg.node_task[static_cast<std::size_t>(src)])];
    if (axis != nullptr) {
      const auto p = static_cast<std::size_t>(cg.node_phase[static_cast<std::size_t>(src)] - 1);
      arc_slope_[static_cast<std::size_t>(a)] = axis->step[p];
    }
  }
  i128 slope = 0;
  for (const CriticalCycleCert::Coeff& c : cert.coeffs) {
    const auto* axis = axis_of[static_cast<std::size_t>(c.task)];
    if (axis != nullptr) {
      slope = checked_add(slope, checked_mul(i128{c.count},
                                             i128{axis->step[static_cast<std::size_t>(c.phase - 1)]}));
    }
  }
  num_slope_ = narrow64(slope);
}

Rational RegionCertifier::ratio_at(i64 s) const {
  return Rational(i128{numerator_at(s)}, 1) / cert_->cycle_time;
}

i64 RegionCertifier::numerator_at(i64 s) const {
  return narrow64(checked_add(i128{cert_->cycle_cost},
                              checked_mul(i128{s} - i128{s_anchor_}, i128{num_slope_})));
}

bool RegionCertifier::valid_at(i64 s, McrpScratch& mcrp) {
  const i128 ds = i128{s} - i128{s_anchor_};
  const i128 num = checked_add(i128{cert_->cycle_cost}, checked_mul(ds, i128{num_slope_}));
  if (num <= 0) return false;
  const BivaluedGraph& bg = cg_->graph;
  const std::span<const i64> costs = bg.costs();
  costs_.resize(costs.size());
  for (std::size_t a = 0; a < costs.size(); ++a) {
    costs_[a] = narrow64(checked_add(i128{costs[a]}, checked_mul(ds, i128{arc_slope_[a]})));
  }
  return !has_positive_cycle(bg, costs_, Rational(num, 1) / cert_->cycle_time, mcrp);
}

std::optional<i128> RegionCertifier::crossing_offset(i64 hi, const McrpScratch& mcrp) const {
  const i128 c0 = cert_->cycle_cost;
  const i128 ds = i128{hi} - i128{s_anchor_};
  if (checked_add(c0, checked_mul(ds, i128{num_slope_})) <= 0) {
    // The Unbounded guard: from C > 0 at the anchor the numerator falls at
    // slope σ < 0 and stays positive exactly up to ⌊(C−1)/(−σ)⌋ samples on.
    if (num_slope_ >= 0) {
      throw SolverError("region_end: cert numerator fell without a negative slope (invariant breach)");
    }
    return (c0 - 1) / -i128{num_slope_};
  }
  // has_positive_cycle left a circuit c′ that is positive at hi. With c the
  // cert, g(s) = L_c′(s)·H_c − L_c(s)·H_c′ is affine in s (H is constant
  // along the ray), ≤ 0 at the anchor, whose exact solve bounds every
  // circuit, and > 0 at hi; scaled by the H denominators it is an integer.
  const std::span<const std::int32_t> witness = mcrp.bf_cycle;
  if (witness.empty()) {
    throw SolverError("region_end: failed check left no witness circuit (invariant breach)");
  }
  const std::span<const i64> costs = cg_->graph.costs();
  i128 lw = 0;  // L_c′ at the anchor
  i128 sw = 0;  // dL_c′/ds
  for (const std::int32_t a : witness) {
    lw += costs[static_cast<std::size_t>(a)];
    sw += arc_slope_[static_cast<std::size_t>(a)];
  }
  Rational hw;
  try {
    hw = cg_->graph.cycle_time(witness);
  } catch (const OverflowError&) {
    return std::nullopt;
  }
  const Rational& hc = cert_->cycle_time;
  i128 cw = 0;
  i128 wc = 0;
  i128 left = 0;
  i128 right = 0;
  i128 g0 = 0;     // g(anchor)·den(H_c)·den(H_c′)
  i128 slope = 0;  // its slope in s
  if (!try_mul(hc.num(), hw.den(), cw) || !try_mul(hw.num(), hc.den(), wc) ||
      !try_mul(lw, cw, left) || !try_mul(c0, wc, right) || !try_sub(left, right, g0) ||
      !try_mul(sw, cw, left) || !try_mul(i128{num_slope_}, wc, right) ||
      !try_sub(left, right, slope)) {
    return std::nullopt;
  }
  if (slope <= 0) {
    throw SolverError("region_end: witness circuit does not rise against the cert (invariant breach)");
  }
  // g > 0, so c′ is positive, at every sample past this offset.
  return floor_div(-g0, slope);
}

i64 RegionCertifier::region_end(i64 s_last, McrpScratch& mcrp) {
  checks_ = 0;
  auto check = [&](i64 s) {
    ++checks_;
    return valid_at(s, mcrp);
  };
  if (s_last <= s_anchor_) return s_anchor_;
  if (check(s_last)) return s_last;
  i64 lo = s_anchor_;     // valid: certified by the anchor's own exact solve
  i64 hi = s_last;        // invalid: just checked
  bool witnessed = true;  // the last check was the one that failed at hi
  while (hi - lo > 1) {
    const std::optional<i128> offset =
        witnessed ? crossing_offset(hi, mcrp) : std::optional<i128>{};
    if (offset.has_value()) {
      // Every sample above `next` fails, so the walk's next probe is there.
      const i128 next = i128{s_anchor_} + *offset;
      if (next < lo || next >= hi) {
        throw SolverError("region_end: crossing point makes no progress (invariant breach)");
      }
      if (next == lo || check(static_cast<i64>(next))) return static_cast<i64>(next);
      hi = static_cast<i64>(next);
      continue;
    }
    // The crossing arithmetic overflowed (or hi's witness is gone): one
    // bisection step.
    const i64 mid = lo + (hi - lo) / 2;
    witnessed = !check(mid);
    (witnessed ? hi : lo) = mid;
  }
  return lo;
}

}  // namespace kp
