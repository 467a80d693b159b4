// Lock-striped, bounded LRU map keyed by exact content (util/hash.hpp
// ContentKey) — the store behind ThroughputService's content-addressed
// result cache.
//
// Concurrency model: the key's digest selects a stripe; each stripe is an
// independently-locked LRU map with its own slice of the capacity, so
// concurrent lookups of unrelated keys never contend. Within a stripe,
// identity is decided by exact word-for-word key comparison — the digest
// only routes, so a hash collision degrades to an extra compare and can
// never serve a wrong value. Eviction is per-stripe LRU with a hard
// per-stripe cap (ceil(capacity / stripes)), which bounds total entries at
// stripes * ceil(capacity / stripes) — the cache can never grow unbounded
// no matter the traffic mix.
//
// Layout: each stripe is a slab of entries plus two index structures over
// slab positions, so a warm stripe allocates nothing per node:
//   * the slab — one entry (key, value, LRU links) per live key, grown
//     lazily up to the stripe's cap (construction allocates nothing in
//     proportion to the capacity). Entries are not freed: once the stripe
//     is full, an insert evicts the LRU tail and writes the new key and
//     value into that same slot. Slots are 32-bit positions, so a stripe
//     holds fewer than 2^32 entries;
//   * an open-addressed digest index — linear probing over a power-of-two
//     table at most half full, holding (digest, slot) pairs. The home
//     position takes the digest's TOP bits (the stripe takes its low bits),
//     and a deletion repairs the probe run by backward shifting, so no
//     tombstones accumulate;
//   * the LRU order as a doubly-linked list of slab positions (head = most
//     recently used, tail = next victim).
// The key words are copied at exact size: an evicted slot whose words
// capacity differs from the new key's length gets a fresh exactly-sized
// vector (one allocation) instead of keeping its largest-ever capacity.
// Reusing capacity would save that allocation but let every slot retain
// the biggest key it ever held, which on a mixed-size workload costs more
// resident memory than the saved allocation is worth. The value is
// copy-assigned into the slot (a value type with its own buffers keeps
// their capacity, as std::vector assignment does).
//
// Counters (size, evictions) are relaxed atomics so an observability
// snapshot (ThroughputService::stats) never takes a stripe lock.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace kp {

template <typename Value>
class StripedLruCache {
  // A failed insert relocates a slab entry by move (Stripe::drop).
  static_assert(std::is_nothrow_move_assignable_v<Value>);

 public:
  /// `capacity` bounds total entries (0 disables the cache entirely: find
  /// always misses, insert is a no-op). The stripe count is clamped to the
  /// capacity so tiny caches still evict strictly (capacity 1 = one stripe
  /// of one entry, exact global LRU).
  explicit StripedLruCache(std::size_t capacity, std::size_t stripes = 16)
      : capacity_(capacity),
        per_stripe_cap_(capacity == 0 ? 0
                                      : (capacity + stripe_count_for(capacity, stripes) - 1) /
                                            stripe_count_for(capacity, stripes)),
        stripes_(stripe_count_for(capacity, stripes)) {}

  StripedLruCache(const StripedLruCache&) = delete;
  StripedLruCache& operator=(const StripedLruCache&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t stripe_count() const noexcept { return stripes_.size(); }

  /// Exact-match lookup; a hit is promoted to most-recently-used in its
  /// stripe and returned by copy (the cache keeps ownership — callers may
  /// mutate their copy freely).
  [[nodiscard]] std::optional<Value> find(const ContentKey& key) {
    if (!enabled()) return std::nullopt;
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lk(s.mu);
    const std::size_t pos = s.find_pos(key);
    if (pos == kNpos) return std::nullopt;
    const std::uint32_t slot = s.index[pos].slot;
    s.promote(slot);
    return s.slab[slot].value;
  }

  /// Inserts (or refreshes) key -> value. A new key takes a fresh slab slot
  /// while the stripe is below its slice of the capacity, and otherwise the
  /// slot of the stripe's LRU tail, which it evicts. Should copying the key
  /// or the value throw, the half-written entry is dropped from the stripe
  /// (it is never served) and the exception propagates.
  void insert(const ContentKey& key, const Value& value) {
    if (!enabled()) return;
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lk(s.mu);
    // Pick the slot and detach it: in the slab, in neither index nor list.
    std::uint32_t slot = kNil;
    const std::size_t pos = s.find_pos(key);
    if (pos != kNpos) {
      slot = s.index[pos].slot;  // refresh
      s.erase_pos(pos);
      s.unlink(slot);
    } else if (s.slab.size() < per_stripe_cap_) {
      if (s.slab.size() == s.slab.capacity()) s.grow(per_stripe_cap_);
      slot = static_cast<std::uint32_t>(s.slab.size());
      s.slab.emplace_back();
      size_.fetch_add(1, std::memory_order_relaxed);
    } else {
      slot = s.tail;
      s.erase_pos(s.pos_of(slot));
      s.unlink(slot);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    Entry& e = s.slab[slot];
    try {
      if (e.key.words.capacity() == key.words.size()) {
        e.key.words.assign(key.words.begin(), key.words.end());
      } else {
        e.key.words = std::vector<std::int64_t>(key.words);  // exactly sized
      }
      e.value = value;
    } catch (...) {
      s.drop(slot);
      size_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
    e.key.digest = key.digest;
    s.push_front(slot);
    s.place(key.digest, slot);
  }

  /// Live entries / LRU evictions so far. Relaxed reads — safe from any
  /// thread, no lock taken.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kNpos = SIZE_MAX;

  struct Entry {
    ContentKey key;
    Value value{};
    std::uint32_t prev = kNil;  // towards the head (more recently used)
    std::uint32_t next = kNil;  // towards the tail
  };
  struct IndexCell {
    std::uint64_t digest = 0;
    std::uint32_t slot = kNil;  // kNil = empty cell
  };

  struct Stripe {
    std::mutex mu;
    std::vector<Entry> slab;        // every element is a live entry
    std::vector<IndexCell> index;   // power-of-two size, at most half full
    std::uint32_t head = kNil;      // most recently used
    std::uint32_t tail = kNil;      // least recently used

    [[nodiscard]] std::size_t home(std::uint64_t digest) const noexcept {
      // Top bits: the stripe was chosen by the digest's low bits.
      return static_cast<std::size_t>(digest >> (64 - std::countr_zero(index.size())));
    }

    /// Index cell holding `key`, or kNpos.
    [[nodiscard]] std::size_t find_pos(const ContentKey& key) const {
      if (index.empty()) return kNpos;
      const std::size_t mask = index.size() - 1;
      for (std::size_t i = home(key.digest);; i = (i + 1) & mask) {
        const IndexCell& c = index[i];
        if (c.slot == kNil) return kNpos;
        if (c.digest == key.digest && slab[c.slot].key.words == key.words) return i;
      }
    }

    /// Index cell of a live slot.
    [[nodiscard]] std::size_t pos_of(std::uint32_t slot) const noexcept {
      const std::size_t mask = index.size() - 1;
      std::size_t i = home(slab[slot].key.digest);
      while (index[i].slot != slot) i = (i + 1) & mask;
      return i;
    }

    void place(std::uint64_t digest, std::uint32_t slot) noexcept {
      const std::size_t mask = index.size() - 1;
      std::size_t i = home(digest);
      while (index[i].slot != kNil) i = (i + 1) & mask;
      index[i] = IndexCell{digest, slot};
    }

    /// Empties cell `hole` and shifts later cells of its probe run back, so
    /// every remaining key stays reachable from its home without tombstones.
    void erase_pos(std::size_t hole) noexcept {
      const std::size_t mask = index.size() - 1;
      for (std::size_t j = (hole + 1) & mask; index[j].slot != kNil; j = (j + 1) & mask) {
        // The cell at j may move into the hole only if its home does not
        // lie cyclically in (hole, j]: it must stay at or after its home.
        const std::size_t h = home(index[j].digest);
        const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
        if (stays) continue;
        index[hole] = index[j];
        hole = j;
      }
      index[hole] = IndexCell{};
    }

    /// Enlarges the slab (doubling, never past `cap`) and rebuilds the
    /// index at twice the new slab capacity.
    void grow(std::size_t cap) {
      const std::size_t want = std::min(cap, std::max<std::size_t>(4, 2 * slab.capacity()));
      slab.reserve(want);
      index.assign(std::bit_ceil(2 * want), IndexCell{});
      for (std::uint32_t s = 0; s < slab.size(); ++s) place(slab[s].key.digest, s);
    }

    void unlink(std::uint32_t slot) noexcept {
      Entry& e = slab[slot];
      (e.prev == kNil ? head : slab[e.prev].next) = e.next;
      (e.next == kNil ? tail : slab[e.next].prev) = e.prev;
      e.prev = e.next = kNil;
    }

    /// Removes a detached slot from the slab; the last entry moves into it.
    void drop(std::uint32_t slot) noexcept {
      const auto last = static_cast<std::uint32_t>(slab.size() - 1);
      if (slot != last) {
        Entry& m = slab[last];
        index[pos_of(last)].slot = slot;
        (m.prev == kNil ? head : slab[m.prev].next) = slot;
        (m.next == kNil ? tail : slab[m.next].prev) = slot;
        slab[slot] = std::move(m);
      }
      slab.pop_back();
    }

    void push_front(std::uint32_t slot) noexcept {
      Entry& e = slab[slot];
      e.prev = kNil;
      e.next = head;
      (head == kNil ? tail : slab[head].prev) = slot;
      head = slot;
    }

    void promote(std::uint32_t slot) noexcept {
      if (slot == head) return;
      unlink(slot);
      push_front(slot);
    }
  };

  [[nodiscard]] static std::size_t stripe_count_for(std::size_t capacity,
                                                    std::size_t stripes) noexcept {
    std::size_t n = stripes == 0 ? 1 : stripes;
    if (capacity > 0 && n > capacity) n = capacity;
    if (capacity == 0) n = 1;
    return n;
  }

  [[nodiscard]] Stripe& stripe_of(const ContentKey& key) noexcept {
    return stripes_[static_cast<std::size_t>(key.digest) % stripes_.size()];
  }

  std::size_t capacity_;
  std::size_t per_stripe_cap_;
  std::vector<Stripe> stripes_;
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace kp
