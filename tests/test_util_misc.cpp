// Tests for the RNG, stopwatch formatting, hashing, the striped LRU cache
// (including a randomized check against a list-LRU model and a 4-thread
// stress), the latency histogram and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/hash.hpp"
#include "util/histogram.hpp"
#include "util/lru_cache.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace kp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const i64 v = rng.uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, UniformBadRangeThrows) {
  Rng rng(7);
  EXPECT_THROW((void)rng.uniform(3, 2), ModelError);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) seen[rng.uniform(0, 4)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, PickAndShuffle) {
  Rng rng(3);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 20; ++i) {
    const int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
  std::vector<int> s{1, 2, 3, 4, 5, 6, 7, 8};
  rng.shuffle(s);
  std::vector<int> sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_THROW((void)rng.pick(std::vector<int>{}), ModelError);
}

TEST(Stopwatch, FormatDuration) {
  EXPECT_EQ(format_duration_ms(0.5), "0.50ms");
  EXPECT_EQ(format_duration_ms(999.0), "999.00ms");
  EXPECT_EQ(format_duration_ms(1500.0), "1.50s");
  EXPECT_EQ(format_duration_ms(120000.0), "2.0min");
}

TEST(Stopwatch, MeasuresSomething) {
  Stopwatch w;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(w.elapsed_ms(), 0.0);
  EXPECT_GE(w.elapsed_s(), 0.0);
}

TEST(Hash, SpanDistinguishes) {
  const std::vector<i64> a{1, 2, 3};
  const std::vector<i64> b{1, 2, 4};
  const std::vector<i64> c{1, 2, 3};
  EXPECT_NE(hash_span(a), hash_span(b));
  EXPECT_EQ(hash_span(a), hash_span(c));
  EXPECT_NE(hash_span({}), hash_span(a));
}

TEST(Hash, OrderSensitive) {
  const std::vector<i64> a{1, 2};
  const std::vector<i64> b{2, 1};
  EXPECT_NE(hash_span(a), hash_span(b));
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row({"x", "1"});
  t.separator();
  t.row({"longer-name", "23456"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| longer-name "), std::string::npos);
  EXPECT_NE(out.find("| 23456 "), std::string::npos);
  // All lines are equally wide.
  std::istringstream lines(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), ModelError);
}

ContentKey make_key(std::vector<i64> words) {
  ContentKey key;
  key.words = std::move(words);
  key.finalize();
  return key;
}

TEST(ContentKey, EqualityIsExactWordCompare) {
  const ContentKey a = make_key({1, 2, 3});
  const ContentKey b = make_key({1, 2, 3});
  const ContentKey c = make_key({1, 2, 4});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.digest, b.digest);
  // Even with a forged colliding digest, equality must reject different
  // words — the digest only routes, it never decides identity.
  ContentKey forged = c;
  forged.digest = a.digest;
  EXPECT_FALSE(a == forged);
}

TEST(StripedLruCache, FindInsertPromoteEvict) {
  StripedLruCache<std::string> cache(2, /*stripes=*/1);  // exact global LRU
  const ContentKey a = make_key({1});
  const ContentKey b = make_key({2});
  const ContentKey c = make_key({3});

  EXPECT_FALSE(cache.find(a).has_value());
  cache.insert(a, "A");
  cache.insert(b, "B");
  EXPECT_EQ(cache.size(), 2u);
  // Touch a: b becomes the LRU tail, so inserting c evicts b, not a.
  ASSERT_TRUE(cache.find(a).has_value());
  EXPECT_EQ(*cache.find(a), "A");
  cache.insert(c, "C");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.find(a).has_value());
  EXPECT_FALSE(cache.find(b).has_value());
  EXPECT_TRUE(cache.find(c).has_value());
  // Refreshing an existing key replaces the value without growing.
  cache.insert(a, "A2");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.find(a), "A2");
}

TEST(StripedLruCache, ZeroCapacityDisables) {
  StripedLruCache<int> cache(0);
  EXPECT_FALSE(cache.enabled());
  const ContentKey k = make_key({7});
  cache.insert(k, 1);
  EXPECT_FALSE(cache.find(k).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(StripedLruCache, StripeCountClampedToCapacity) {
  StripedLruCache<int> tiny(3, /*stripes=*/16);
  EXPECT_EQ(tiny.stripe_count(), 3u);
  StripedLruCache<int> wide(4096);
  EXPECT_EQ(wide.stripe_count(), 16u);
}

// ---- the flat cache against a list-LRU model ---------------------------------

/// Reference model of StripedLruCache's documented policy: the stripe count
/// clamped to the capacity, routing by digest % stripes, and per stripe a
/// list LRU (front = most recent) capped at ceil(capacity / stripes). Keys
/// are identified by their index in the test's key universe.
class LruModel {
 public:
  LruModel(std::size_t capacity, std::size_t stripes)
      : lists_(std::min(stripes, capacity)), cap_((capacity + lists_.size() - 1) / lists_.size()) {}

  std::optional<int> find(std::size_t stripe, int id) {
    std::list<std::pair<int, int>>& l = lists_[stripe];
    const auto it = locate(l, id);
    if (it == l.end()) return std::nullopt;
    l.splice(l.begin(), l, it);
    return it->second;
  }

  void insert(std::size_t stripe, int id, int value) {
    std::list<std::pair<int, int>>& l = lists_[stripe];
    const auto it = locate(l, id);
    if (it != l.end()) {
      it->second = value;
      l.splice(l.begin(), l, it);
      return;
    }
    l.emplace_front(id, value);
    ++size_;
    if (l.size() > cap_) {
      l.pop_back();
      --size_;
      ++evictions_;
    }
  }

  [[nodiscard]] std::size_t stripes() const { return lists_.size(); }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  static std::list<std::pair<int, int>>::iterator locate(std::list<std::pair<int, int>>& l,
                                                         int id) {
    return std::find_if(l.begin(), l.end(), [id](const auto& e) { return e.first == id; });
  }

  std::vector<std::list<std::pair<int, int>>> lists_;
  std::size_t cap_;
  std::uint64_t size_ = 0;
  std::uint64_t evictions_ = 0;
};

/// `count` distinct keys of 1 to 12 words (word 0 is the key's id), in
/// three interleaved kinds: ordinary keys with their own digest; forged
/// twins carrying the previous key's digest with other words, which only
/// the exact word compare tells apart; and clustered keys whose digests
/// share the top 32 and the low 8 bits — one stripe and one home cell of
/// the digest index, whatever its size — so evictions delete from the
/// middle of long probe runs.
std::vector<ContentKey> make_key_universe(std::size_t count, Rng& rng) {
  std::vector<ContentKey> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    ContentKey& k = keys[i];
    k.words.push_back(static_cast<i64>(i));
    const i64 extra = rng.uniform(0, 11);
    for (i64 w = 0; w < extra; ++w) k.words.push_back(rng.uniform(-1000, 1000));
    k.finalize();
    if (i % 3 == 1) k.digest = keys[i - 1].digest;
    if (i % 3 == 2) {
      k.digest = (u64{0xC0FFEE12} << 32) | (static_cast<u64>(rng.uniform(0, 0xFFFFFF)) << 8) | 0x5A;
    }
  }
  return keys;
}

TEST(StripedLruCache, MatchesListLruModel) {
  for (const std::size_t capacity : {1, 2, 3, 7, 64, 257}) {
    for (const std::size_t stripes : {1, 4, 16}) {
      Rng rng(1000 * capacity + stripes);
      const std::vector<ContentKey> keys = make_key_universe(2 * capacity + 6, rng);
      StripedLruCache<int> cache(capacity, stripes);
      LruModel model(capacity, stripes);
      ASSERT_EQ(cache.stripe_count(), model.stripes());
      std::vector<int> recent;  // ids inserted lately, for refreshes
      for (int op = 0; op < 100000; ++op) {
        const i64 kind = rng.uniform(0, 9);
        int id = static_cast<int>(rng.uniform(0, static_cast<i64>(keys.size()) - 1));
        if (kind >= 8 && !recent.empty()) {
          id = recent[static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(recent.size()) - 1))];
        }
        const ContentKey& key = keys[static_cast<std::size_t>(id)];
        const std::size_t stripe = key.digest % model.stripes();
        if (kind < 4) {
          const std::optional<int> got = cache.find(key);
          const std::optional<int> want = model.find(stripe, id);
          ASSERT_EQ(got.has_value(), want.has_value())
              << "find, capacity " << capacity << " stripes " << stripes << " op " << op;
          if (want) {
            ASSERT_EQ(*got, *want) << "capacity " << capacity << " op " << op;
          }
        } else {
          cache.insert(key, op);
          model.insert(stripe, id, op);
          if (recent.size() < 8) {
            recent.push_back(id);
          } else {
            recent[static_cast<std::size_t>(op) % recent.size()] = id;
          }
        }
        ASSERT_EQ(cache.size(), model.size()) << "capacity " << capacity << " op " << op;
        ASSERT_EQ(cache.evictions(), model.evictions()) << "capacity " << capacity << " op " << op;
      }
    }
  }
}

/// A value whose copy-assignment throws while `fail` is set.
struct FragileValue {
  static inline bool fail = false;
  int v = 0;

  FragileValue() = default;
  FragileValue(int x) : v(x) {}  // NOLINT(google-explicit-constructor)
  FragileValue(const FragileValue&) = default;
  FragileValue& operator=(FragileValue&&) noexcept = default;
  FragileValue& operator=(const FragileValue& o) {
    if (fail) throw std::runtime_error("copy failed");
    v = o.v;
    return *this;
  }
};

TEST(StripedLruCache, InsertThatThrowsDropsTheEntry) {
  StripedLruCache<FragileValue> cache(4, /*stripes=*/1);
  const ContentKey a = make_key({1});
  const ContentKey b = make_key({2});
  const ContentKey c = make_key({3});
  const ContentKey d = make_key({4});
  const ContentKey e = make_key({5});
  for (const ContentKey* k : {&a, &b, &c, &d}) cache.insert(*k, static_cast<int>(k->words[0]));
  ASSERT_TRUE(cache.find(a).has_value());  // LRU order now b, c, d, a
  FragileValue::fail = true;
  // e evicts b; its copy throws, and the slot it took is dropped (the last
  // slab entry, d's, moves into it).
  EXPECT_THROW(cache.insert(e, 5), std::runtime_error);
  // A refresh that throws drops the key too.
  EXPECT_THROW(cache.insert(c, 30), std::runtime_error);
  FragileValue::fail = false;
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.find(b).has_value());
  EXPECT_FALSE(cache.find(c).has_value());
  EXPECT_FALSE(cache.find(e).has_value());
  ASSERT_TRUE(cache.find(d).has_value());
  EXPECT_EQ(cache.find(d)->v, 4);
  ASSERT_TRUE(cache.find(a).has_value());  // LRU order now d, a
  EXPECT_EQ(cache.find(a)->v, 1);
  // The stripe refills to its cap and evicts in LRU order again.
  cache.insert(b, 2);
  cache.insert(c, 3);
  cache.insert(e, 5);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.find(d).has_value());
  for (const ContentKey* k : {&a, &b, &c, &e}) {
    ASSERT_TRUE(cache.find(*k).has_value());
    EXPECT_EQ(cache.find(*k)->v, static_cast<int>(k->words[0]));
  }
}

TEST(StripedLruCache, ConcurrentHitsCarryTheirOwnKeysValue) {
  Rng setup(77);
  const std::vector<ContentKey> keys = make_key_universe(160, setup);
  // Long enough to live on the heap, so a torn copy cannot pass unseen.
  const auto value_of = [](std::size_t id) {
    return "the value of key number " + std::to_string(id) + ", past the small-string buffer";
  };
  StripedLruCache<std::string> cache(64, 4);
  std::atomic<int> wrong{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + static_cast<u64>(t));
      for (int op = 0; op < 50000; ++op) {
        const auto id = static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(keys.size()) - 1));
        if (rng.uniform(0, 1) == 0) {
          if (const std::optional<std::string> got = cache.find(keys[id])) {
            hits.fetch_add(1, std::memory_order_relaxed);
            if (*got != value_of(id)) wrong.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.insert(keys[id], value_of(id));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_EQ(cache.size(), 64u);  // full: 4 stripes of 16
}

TEST(LatencyHistogram, BucketBoundaries) {
  // bucket 0: < 1us; then 8 equal sub-buckets per octave [2^o, 2^(o+1)) us.
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(-1.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0005), 0);   // 0.5us
  EXPECT_EQ(LatencyHistogram::bucket_of(0.001), 1);    // 1us -> [1, 1.125)
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0011), 1);   // 1.1us
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0012), 2);   // 1.2us -> [1.125, 1.25)
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0019), 8);   // 1.9us -> [1.875, 2)
  EXPECT_EQ(LatencyHistogram::bucket_of(0.002), 9);    // 2us -> [2, 2.25)
  EXPECT_EQ(LatencyHistogram::bucket_of(1.0), 80);     // 1000us -> [960, 1024)
  EXPECT_EQ(LatencyHistogram::bucket_of(1.03), 81);    // 1030us -> [1024, 1152)
  EXPECT_EQ(LatencyHistogram::bucket_of(1e12), LatencyHistogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_us(0), 1.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_us(1), 1.125);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_us(8), 2.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_us(80), 1024.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_us(81), 1152.0);
  // Every bucket above 0 is at most 12.5% wider than its lower edge, and a
  // value just inside either edge lands in it.
  for (int i = 1; i < LatencyHistogram::kBuckets; ++i) {
    const double lo = LatencyHistogram::bucket_upper_us(i - 1);
    const double hi = LatencyHistogram::bucket_upper_us(i);
    EXPECT_GT(hi, lo) << "bucket " << i;
    EXPECT_LE(hi / lo, 1.125) << "bucket " << i;
    EXPECT_EQ(LatencyHistogram::bucket_of(lo / 1000.0 * (1 + 1e-9)), i) << "bucket " << i;
    EXPECT_EQ(LatencyHistogram::bucket_of(hi / 1000.0 * (1 - 1e-9)), i) << "bucket " << i;
  }
}

TEST(LatencyHistogram, PercentilesUpperBoundAndMonotone) {
  LatencyHistogram h;
  const auto empty = h.snapshot();
  EXPECT_EQ(empty.total(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile_ms(0.5), 0.0);

  // 90 fast (~2us) + 10 slow (~2ms) recordings: p50 lands in the fast
  // bucket, p99 in the slow one, both reported as bucket upper bounds.
  for (int i = 0; i < 90; ++i) h.record_ms(0.002);
  for (int i = 0; i < 10; ++i) h.record_ms(2.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.total(), 100u);
  const double p50 = s.percentile_ms(0.50);
  const double p99 = s.percentile_ms(0.99);
  EXPECT_DOUBLE_EQ(p50, LatencyHistogram::bucket_upper_us(LatencyHistogram::bucket_of(0.002)) /
                            1000.0);
  EXPECT_DOUBLE_EQ(p99, LatencyHistogram::bucket_upper_us(LatencyHistogram::bucket_of(2.0)) /
                            1000.0);
  EXPECT_LE(p50, p99);
  // The upper-bound bias never under-reports.
  EXPECT_GE(p50, 0.002);
  EXPECT_GE(p99, 2.0);
}

// Samples spread log-uniformly over 1 us .. 10 s: every percentile sits at
// or above the exact nearest-rank value and at most 12.5% over it.
TEST(LatencyHistogram, PercentilesWithinAnEighthOfNearestRank) {
  Rng rng(2024);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // 10^(-3 .. 4) ms, in steps of 10^-6 decades.
    const double ms = std::pow(10.0, static_cast<double>(rng.uniform(-3000000, 4000000)) / 1e6);
    samples.push_back(ms);
    h.record_ms(ms);
  }
  std::sort(samples.begin(), samples.end());
  const auto s = h.snapshot();
  for (const double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size()))));
    const double exact = samples[rank - 1];
    const double reported = s.percentile_ms(q);
    EXPECT_GE(reported, exact * (1 - 1e-12)) << "q " << q;
    EXPECT_LE(reported, exact * 1.125 * (1 + 1e-12)) << "q " << q;
  }
}

}  // namespace
}  // namespace kp
