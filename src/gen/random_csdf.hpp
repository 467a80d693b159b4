// Seeded random generator of consistent, live CSDF graphs.
//
// Construction guarantees (each verified by tests):
//   * connectivity  — a random spanning tree underlies every graph;
//   * consistency   — a repetition vector q is drawn first and every
//     buffer's rate totals are derived from it (i_b = c·q_dst/g,
//     o_b = c·q_src/g with g = gcd(q_src, q_dst)), so q is valid by
//     construction;
//   * liveness      — arcs that close cycles carry at least one full
//     iteration of the consumer's demand (M0 >= o_b·q_dst), so the
//     acyclic residue schedules one whole iteration unassisted.
//
// Used by the property-based tests (cross-method equality on hundreds of
// graphs) and by the MimicDSP / LgHSDF benchmark categories.
#pragma once

#include "model/csdf.hpp"
#include "util/rng.hpp"

namespace kp {

struct RandomCsdfOptions {
  std::int32_t min_tasks = 3;
  std::int32_t max_tasks = 12;
  std::int32_t max_phases = 3;  // 1 => SDF
  i64 max_q = 8;                // per-task repetition bound (before scaling)
  i64 max_rate_factor = 3;      // the 'c' in i_b = c·q_dst/g
  i64 max_duration = 10;
  i64 min_duration = 1;
  /// Probability (num/den) of each extra non-tree arc per candidate pair.
  i64 extra_arc_num = 1;
  i64 extra_arc_den = 4;
  /// Extra random tokens (0..slack · o_b) on cycle-closing arcs.
  i64 token_slack = 1;
  /// If true, one randomly chosen cycle-closing arc is starved of tokens,
  /// making the graph (almost surely) deadlock — for liveness tests.
  bool starve_one_cycle = false;
};

[[nodiscard]] CsdfGraph random_csdf(Rng& rng, const RandomCsdfOptions& options = {});

/// SDF convenience: same generator with max_phases = 1.
[[nodiscard]] CsdfGraph random_sdf(Rng& rng, RandomCsdfOptions options = {});

}  // namespace kp
