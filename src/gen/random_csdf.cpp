#include "gen/random_csdf.hpp"

#include <algorithm>
#include <string>

namespace kp {

namespace {

/// Splits `total` >= 1 into `parts` non-negative summands, each drawn
/// uniformly; guarantees the vector sums to `total`.
std::vector<i64> random_composition(Rng& rng, i64 total, std::int32_t parts) {
  std::vector<i64> out(static_cast<std::size_t>(parts), 0);
  for (i64 unit = 0; unit < total; ++unit) {
    out[static_cast<std::size_t>(rng.uniform(0, parts - 1))] += 1;
  }
  return out;
}

}  // namespace

CsdfGraph random_csdf(Rng& rng, const RandomCsdfOptions& options) {
  const auto n = static_cast<std::int32_t>(rng.uniform(options.min_tasks, options.max_tasks));
  CsdfGraph g("random-csdf");

  std::vector<i64> q(static_cast<std::size_t>(n));
  for (std::int32_t t = 0; t < n; ++t) {
    const auto phases =
        static_cast<std::int32_t>(rng.uniform(1, options.max_phases));
    std::vector<i64> durations(static_cast<std::size_t>(phases));
    for (auto& d : durations) d = rng.uniform(options.min_duration, options.max_duration);
    g.add_task(std::string("t").append(std::to_string(t)), std::move(durations));
    q[static_cast<std::size_t>(t)] = rng.uniform(1, options.max_q);
  }

  // Arc plan: a spanning tree (random parent, random orientation) plus
  // extra arcs. An arc is "cycle closing" if it can complete a directed
  // cycle in the graph built so far; we conservatively treat any arc whose
  // target can already reach its source as cycle closing.
  struct PlannedArc {
    TaskId src;
    TaskId dst;
    bool closes_cycle;
  };
  std::vector<PlannedArc> plan;
  // Reachability matrix maintained incrementally (n is small by design).
  std::vector<std::vector<bool>> reach(static_cast<std::size_t>(n),
                                       std::vector<bool>(static_cast<std::size_t>(n), false));
  for (std::int32_t t = 0; t < n; ++t) reach[static_cast<std::size_t>(t)][static_cast<std::size_t>(t)] = true;
  auto add_reach = [&](TaskId s, TaskId d) {
    // everything reaching s now reaches everything d reaches
    for (std::int32_t x = 0; x < n; ++x) {
      if (!reach[static_cast<std::size_t>(x)][static_cast<std::size_t>(s)]) continue;
      for (std::int32_t y = 0; y < n; ++y) {
        if (reach[static_cast<std::size_t>(d)][static_cast<std::size_t>(y)]) {
          reach[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] = true;
        }
      }
    }
  };
  auto plan_arc = [&](TaskId a, TaskId b) {
    const bool closes = reach[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)];
    plan.push_back(PlannedArc{a, b, closes});
    add_reach(a, b);
  };

  for (std::int32_t t = 1; t < n; ++t) {
    const auto other = static_cast<TaskId>(rng.uniform(0, t - 1));
    if (rng.chance(1, 2)) {
      plan_arc(other, t);
    } else {
      plan_arc(t, other);
    }
  }
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = 0; b < n; ++b) {
      if (a == b) continue;
      if (rng.chance(options.extra_arc_num, options.extra_arc_den * n)) {
        plan_arc(a, b);
      }
    }
  }

  // Pick the victim for starvation among cycle-closing arcs, if requested.
  std::int32_t starve_index = -1;
  if (options.starve_one_cycle) {
    std::vector<std::int32_t> closers;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].closes_cycle) closers.push_back(static_cast<std::int32_t>(i));
    }
    if (!closers.empty()) starve_index = rng.pick(closers);
  }

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlannedArc& arc = plan[i];
    const i64 qs = q[static_cast<std::size_t>(arc.src)];
    const i64 qd = q[static_cast<std::size_t>(arc.dst)];
    const i64 gq = gcd64(qs, qd);
    const i64 c = rng.uniform(1, options.max_rate_factor);
    const i64 total_prod = checked_mul(c, qd / gq);
    const i64 total_cons = checked_mul(c, qs / gq);

    std::vector<i64> prod = random_composition(rng, total_prod, g.phases(arc.src));
    std::vector<i64> cons = random_composition(rng, total_cons, g.phases(arc.dst));

    i64 m0 = 0;
    if (arc.closes_cycle) {
      if (static_cast<std::int32_t>(i) == starve_index) {
        m0 = 0;
      } else {
        // One full consumer iteration plus slack keeps the cycle live.
        m0 = checked_mul(total_cons, qd);
        if (options.token_slack > 0) {
          m0 = checked_add(m0, rng.uniform(0, checked_mul(options.token_slack, total_cons)));
        }
      }
    } else if (rng.chance(1, 4)) {
      m0 = rng.uniform(0, total_cons);
    }
    g.add_buffer("", arc.src, arc.dst, std::move(prod), std::move(cons), m0);
  }
  return g;
}

CsdfGraph random_sdf(Rng& rng, RandomCsdfOptions options) {
  options.max_phases = 1;
  CsdfGraph g = random_csdf(rng, options);
  g.set_name("random-sdf");
  return g;
}

}  // namespace kp
