// Strongly connected components (iterative Tarjan) and condensation order.
//
// MCRP optima are per-SCC: circuits live inside strongly connected
// components, so the solvers decompose the constraint graph first.
//
// The scratch-based overload reuses all DFS state (and the result's
// component vector) across calls: after a first warming run, recomputing
// the SCCs of a graph of no larger size performs zero heap allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace kp {

struct SccResult {
  /// Component index of each node; components are numbered in reverse
  /// topological order (Tarjan's output order: a component is numbered
  /// before any component that can reach it).
  std::vector<std::int32_t> component_of;
  std::int32_t component_count = 0;

  /// Nodes grouped by component.
  [[nodiscard]] std::vector<std::vector<std::int32_t>> grouped() const;
};

/// Reusable DFS state for the scratch-based overload.
struct SccScratch {
  struct Frame {
    std::int32_t node;
    std::int32_t arc_pos;  // position within the node's out-arc span
  };
  std::vector<std::int32_t> index;
  std::vector<std::int32_t> lowlink;
  std::vector<std::int8_t> on_stack;
  std::vector<std::int32_t> stack;
  std::vector<Frame> dfs;
};

/// Tarjan's algorithm, iterative (constraint graphs can be deep).
[[nodiscard]] SccResult strongly_connected_components(const Digraph& g);

/// Allocation-free (when warm) variant writing into `out`.
void strongly_connected_components(const Digraph& g, SccScratch& scratch, SccResult& out);

/// True if the arc's endpoints are in the same SCC (the arc can be part of
/// a circuit).
[[nodiscard]] bool arc_in_cycle(const Digraph& g, const SccResult& scc, std::int32_t arc_id);

}  // namespace kp
