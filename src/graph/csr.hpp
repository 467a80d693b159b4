// Shared counting-sort CSR index builder.
//
// Builds offsets (n + 1 entries) and ids (one per item) such that the items
// with key v occupy ids[offsets[v] .. offsets[v+1]), in input order. Used by
// Digraph's out-adjacency and by the MCRP solver's cyclic-core CSR
// (cycle_ratio.cpp). Only assigns into the caller's retained buffers, so warm
// rebuilds of no larger size perform zero heap allocations. The incremental
// constraint engine keeps its arc list in buffer-order segments and re-runs
// this build after each splice — segmented or freshly generated input
// indexes identically, since only item order matters.
#pragma once

#include <cstdint>
#include <vector>

namespace kp {

template <typename Item, typename KeyFn>
void build_csr_index(std::int32_t n, const std::vector<Item>& items, KeyFn key_of,
                     std::vector<std::int32_t>& offsets, std::vector<std::int32_t>& ids,
                     std::vector<std::int32_t>& cursor) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Item& item : items) {
    ++offsets[static_cast<std::size_t>(key_of(item)) + 1];
  }
  for (std::int32_t v = 0; v < n; ++v) {
    offsets[static_cast<std::size_t>(v) + 1] += offsets[static_cast<std::size_t>(v)];
  }
  ids.resize(items.size());
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ids[static_cast<std::size_t>(cursor[static_cast<std::size_t>(key_of(items[i]))]++)] =
        static_cast<std::int32_t>(i);
  }
}

}  // namespace kp
