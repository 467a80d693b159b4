// Shared counting-sort CSR index builder.
//
// Builds offsets (n + 1 entries) and ids (one per item) such that the items
// with key v occupy ids[offsets[v] .. offsets[v+1]), in input order. Used by
// Digraph's adjacency and by the MCRP solver's cyclic-core CSR
// (cycle_ratio.cpp). Only assigns into the caller's retained buffers, so warm
// rebuilds of no larger size perform zero heap allocations. The incremental
// constraint engine keeps its arc list in buffer-order segments and re-runs
// a (patched) build after each splice — segmented or freshly generated
// input indexes identically, since only item order matters.
//
// build_csr_index_patched is the diff-aware variant: when the caller knows
// that whole key ranges kept their per-key item counts from a previous
// index (the incremental constraint engine's untouched tasks), the counting
// pass over their items is replaced by copying the previous index's degree
// spans verbatim, and only the item ranges the caller names are recounted.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace kp {

/// Degree-span reuse descriptor for build_csr_index_patched: keys
/// [new_first, new_first + count) of the new index have, key for key, the
/// same item counts as keys [prev_first, prev_first + count) of the
/// previous index.
struct CsrDegreeSpan {
  std::int32_t new_first = 0;
  std::int32_t prev_first = 0;
  std::int32_t count = 0;
};

/// Contiguous item-id range [lo, hi) whose keys must be recounted.
struct CsrArcRange {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
};

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

/// Diff-aware rebuild: identical output to build_csr_index, but the counting
/// pass runs only over `recount` item ranges; every other key's degree is
/// copied from `prev_offsets` via the `reuse` spans. The caller must cover
/// each key's items exactly once — a key is either inside one reuse span
/// (and then ALL its items kept their count) or all its items lie in the
/// recount ranges. The fill pass still walks every item in id order, which
/// is what keeps per-key id order equal to input order.
template <typename Item, typename KeyFn>
void build_csr_index_patched(std::int32_t n, const std::vector<Item>& items, KeyFn key_of,
                             const std::vector<std::int32_t>& prev_offsets,
                             std::span<const CsrDegreeSpan> reuse,
                             std::span<const CsrArcRange> recount,
                             std::vector<std::int32_t>& offsets, std::vector<std::int32_t>& ids,
                             std::vector<std::int32_t>& cursor) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const CsrDegreeSpan& span : reuse) {
    assert(span.new_first >= 0 && span.new_first + span.count <= n);
    assert(span.prev_first >= 0 &&
           static_cast<std::size_t>(span.prev_first + span.count) < prev_offsets.size());
    for (std::int32_t i = 0; i < span.count; ++i) {
      const auto p = static_cast<std::size_t>(span.prev_first + i);
      offsets[static_cast<std::size_t>(span.new_first + i) + 1] =
          prev_offsets[p + 1] - prev_offsets[p];
    }
  }
  for (const CsrArcRange& range : recount) {
    for (std::int32_t id = range.lo; id < range.hi; ++id) {
      ++offsets[static_cast<std::size_t>(key_of(items[static_cast<std::size_t>(id)])) + 1];
    }
  }
  for (std::int32_t v = 0; v < n; ++v) {
    offsets[static_cast<std::size_t>(v) + 1] += offsets[static_cast<std::size_t>(v)];
  }
  assert(static_cast<std::size_t>(offsets[static_cast<std::size_t>(n)]) == items.size());
  ids.resize(items.size());
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ids[static_cast<std::size_t>(cursor[static_cast<std::size_t>(key_of(items[i]))]++)] =
        static_cast<std::int32_t>(i);
  }
}

}  // namespace kp
