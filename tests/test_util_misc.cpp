// Tests for the RNG, stopwatch formatting, hashing, the striped LRU cache,
// the latency histogram and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
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
