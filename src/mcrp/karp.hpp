// Karp's algorithm for the maximum cycle mean (unit-time special case).
//
// Used as an independent cross-check of the cycle-ratio solver on graphs
// where every arc has H(e) == 1 (then ratio == mean), and as an ablation
// subject. O(n·m) time, O(n²)-ish memory for predecessor tracking — meant
// for test-scale graphs, not the big benchmark instances.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rational.hpp"

namespace kp {

struct KarpResult {
  bool has_cycle = false;
  Rational max_cycle_mean;               // valid when has_cycle
  std::vector<std::int32_t> cycle_arcs;  // a critical cycle, forward order
};

/// Maximum cycle mean of `g` with integer arc weights `w` (one per arc id).
/// Throws SolverError for an SCC above 20,000 nodes, before its O(n²) DP
/// tables are allocated.
[[nodiscard]] KarpResult karp_max_cycle_mean(const Digraph& g, const std::vector<i64>& weights);

}  // namespace kp
