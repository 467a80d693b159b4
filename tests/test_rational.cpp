// Unit and property tests for exact rationals (util/rational.hpp).
#include <gtest/gtest.h>

#include <optional>
#include <unordered_set>
#include <vector>

#include "util/error.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

TEST(Rational, DefaultIsZero) {
  const Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.den(), 1);
  EXPECT_EQ(r.sign(), 0);
}

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, NormalizesSign) {
  const Rational r(3, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
  EXPECT_EQ(r.sign(), -1);
}

TEST(Rational, ZeroDenominatorThrows) { EXPECT_THROW(Rational(1, 0), ModelError); }

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational::of(1, 2) + Rational::of(1, 3), Rational::of(5, 6));
  EXPECT_EQ(Rational::of(1, 2) - Rational::of(1, 3), Rational::of(1, 6));
  EXPECT_EQ(Rational::of(2, 3) * Rational::of(9, 4), Rational::of(3, 2));
  EXPECT_EQ(Rational::of(2, 3) / Rational::of(4, 3), Rational::of(1, 2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW((void)(Rational{1} / Rational{0}), ModelError);
  EXPECT_THROW((void)Rational{0}.reciprocal(), ModelError);
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational::of(1, 3), Rational::of(1, 2));
  EXPECT_GT(Rational::of(-1, 3), Rational::of(-1, 2));
  EXPECT_EQ(Rational::of(2, 4), Rational::of(1, 2));
  EXPECT_LT(Rational::of(-1, 2), Rational{0});
  EXPECT_LT(Rational{0}, Rational::of(1, 1000000));
}

TEST(Rational, ComparisonHugeNoOverflow) {
  // Cross-multiplication of these would exceed 128 bits; the Euclidean
  // comparison must still give the right answer.
  const i128 big = checked_mul(i128{INT64_MAX}, i128{INT64_MAX / 3});
  const Rational a(big, big - 1);
  const Rational b(big - 1, big - 2);
  EXPECT_LT(a, b);  // both slightly above 1; b is farther from 1
  EXPECT_GT(b, a);
  EXPECT_EQ(a, a);
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational::of(7, 2).floor(), 3);
  EXPECT_EQ(Rational::of(7, 2).ceil(), 4);
  EXPECT_EQ(Rational::of(-7, 2).floor(), -4);
  EXPECT_EQ(Rational::of(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational::of(6, 2).floor(), 3);
  EXPECT_EQ(Rational::of(6, 2).ceil(), 3);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational::of(1, 3).to_string(), "1/3");
  EXPECT_EQ(Rational::of(-1, 3).to_string(), "-1/3");
  EXPECT_EQ(Rational{7}.to_string(), "7");
  EXPECT_EQ(Rational{0}.to_string(), "0");
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational::of(1, 4).to_double(), 0.25);
  EXPECT_DOUBLE_EQ(Rational::of(-3, 2).to_double(), -1.5);
}

TEST(Rational, IsInteger) {
  EXPECT_TRUE(Rational::of(8, 4).is_integer());
  EXPECT_FALSE(Rational::of(9, 4).is_integer());
}

TEST(Rational, HashEqualValuesCollide) {
  const std::hash<Rational> h;
  EXPECT_EQ(h(Rational::of(2, 4)), h(Rational::of(1, 2)));
  std::unordered_set<std::size_t> seen;
  for (int i = 1; i <= 100; ++i) seen.insert(h(Rational::of(i, 101)));
  EXPECT_GT(seen.size(), 90u);  // no mass collisions
}

TEST(Rational, MinMaxHelpers) {
  const Rational a = Rational::of(1, 3);
  const Rational b = Rational::of(1, 2);
  EXPECT_EQ(rat_min(a, b), a);
  EXPECT_EQ(rat_max(a, b), b);
  EXPECT_EQ(rat_min(a, a), a);
}

TEST(Rational, OverflowInArithmeticThrows) {
  const i128 big = i128{1} << 120;
  const Rational a(big, 1);
  EXPECT_THROW((void)(a * a), OverflowError);
}

// checked_mul used to accept the exact product -2^127 = INT128_MIN, which
// normalize then negated (undefined behaviour). It is an overflow now, and
// the constructor rejects INT128_MIN outright.
TEST(Rational, Int128MinIsRejected) {
  EXPECT_THROW((void)(Rational(-(i128{1} << 64), 1) * Rational(i128{1} << 63, 1)), OverflowError);
  EXPECT_THROW((void)Rational(k_i128_min, 1), OverflowError);
  EXPECT_THROW((void)Rational(1, k_i128_min), OverflowError);
  const Rational lowest(-k_i128_max, 1);
  EXPECT_EQ((-lowest).num(), k_i128_max);
  EXPECT_LT(lowest, Rational(-k_i128_max + 1, 1));
}

// ---- 64-bit fast paths -------------------------------------------------------
//
// normalize divides in i64 when both words are below 2^63, and <=> compares
// four such words by one i128 cross-multiplication; larger words take the
// 128-bit paths. The references are plain i128 arithmetic: Euclid's gcd,
// and the sign of one checked cross difference.

i128 euclid_gcd(i128 a, i128 b) {
  a = a < 0 ? -a : a;
  b = b < 0 ? -b : b;
  while (b != 0) {
    const i128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Expects Rational(n, d) to hold n/d reduced by Euclid's gcd, den > 0.
void expect_normalized(i128 n, i128 d) {
  const i128 g = euclid_gcd(n, d);
  i128 want_num = n / g;
  i128 want_den = d / g;
  if (want_den < 0) {
    want_num = -want_num;
    want_den = -want_den;
  }
  const Rational r(n, d);
  EXPECT_EQ(r.num(), want_num) << to_string(n) << "/" << to_string(d);
  EXPECT_EQ(r.den(), want_den) << to_string(n) << "/" << to_string(d);
}

/// sign(a/b - c/d) from one checked difference over the lcm of the
/// denominators, a·(d/g) - c·(b/g) with g = gcd(b, d); nullopt when a term
/// leaves i128.
std::optional<int> reference_order(const Rational& x, const Rational& y) {
  const i128 g = euclid_gcd(x.den(), y.den());
  i128 left = 0;
  i128 right = 0;
  i128 diff = 0;
  if (!try_mul(x.num(), y.den() / g, left) || !try_mul(y.num(), x.den() / g, right) ||
      !try_sub(left, right, diff)) {
    return std::nullopt;
  }
  return diff < 0 ? -1 : (diff > 0 ? 1 : 0);
}

int order_of(const Rational& x, const Rational& y) {
  const std::strong_ordering o = x <=> y;
  return o < 0 ? -1 : (o > 0 ? 1 : 0);
}

TEST(Rational, FastPathsAtWordBoundaries) {
  const i128 p62 = i128{1} << 62;
  const i128 p63 = i128{1} << 63;
  const i128 p64 = i128{1} << 64;
  const std::vector<i128> magnitudes{1,       2,   3,       6,       p62 - 1, p62,
                                     p62 + 1, p63 - 1, p63, p63 + 1, p64 - 1, p64,
                                     p64 + 1, 3 * p62, 6 * p63};
  std::vector<Rational> values;
  for (const i128 n : magnitudes) {
    for (const i128 d : magnitudes) {
      for (const i128 sign : {1, -1}) {
        expect_normalized(sign * n, d);
        expect_normalized(sign * n, -d);
        values.emplace_back(sign * n, d);
      }
    }
  }
  // Shared denominators from just below 2^63 to 2^64: the reference stays exact
  // while the cross products of words just below 2^64 pass 2^127.
  for (const i128 d : {p63 - 1, p63 + 1, p63 + 3, p64 - 1, p64 - 3, p64 - 5, 3 * p62 + 1}) {
    for (const i128 n : {p64 - 1, p64 - 2, p64 - 3, p64 - 5, p63 + 1, p63 + 5, p63 - 1}) {
      values.emplace_back(n, d);
      values.emplace_back(-n, d);
    }
  }
  int compared = 0;
  int fast = 0;
  for (const Rational& x : values) {
    for (const Rational& y : values) {
      const std::optional<int> want = reference_order(x, y);
      if (!want) continue;  // the reference cannot order this pair
      ASSERT_EQ(order_of(x, y), *want) << x << " vs " << y;
      ++compared;
      fast += x.num() < p63 && -x.num() < p63 && x.den() < p63 && y.num() < p63 &&
              -y.num() < p63 && y.den() < p63;
    }
  }
  EXPECT_GT(compared, 20000);
  EXPECT_GT(fast, 5000) << "the i128 cross-multiplication path must be covered";
  EXPECT_GT(compared - fast, 5000) << "the Euclidean descent must be covered";
}

/// A random magnitude of exactly `bits` bits.
i128 random_magnitude(Rng& rng, int bits) {
  const auto lo = static_cast<unsigned __int128>(rng.next());
  const auto hi = static_cast<unsigned __int128>(rng.next());
  const unsigned __int128 top = static_cast<unsigned __int128>(1) << (bits - 1);
  return static_cast<i128>(((hi << 64 | lo) & (top - 1)) | top);
}

// 1.4·10^5 seeded pairs; about 10^5 of them mix 62-bit and 100-bit
// magnitudes. Numerators of 62 bits pair with denominators of up to 62 bits
// (the fast paths) or 26 bits; 100-bit numerators with 26-bit denominators
// (the 128-bit paths), so every reference term stays below 2^127. The
// other pairs share one denominator in [2^63, 2^65) between two numerators
// in [2^63, 2^64).
TEST(Rational, FastPathsAgreeWithReferencesOnRandomPairs) {
  Rng rng(20);
  const auto random_rational = [&](int num_bits, int den_bits) {
    const i128 num = random_magnitude(rng, num_bits) * (rng.chance(1, 2) ? 1 : -1);
    const i128 den = random_magnitude(rng, static_cast<int>(rng.uniform(1, den_bits)));
    expect_normalized(num, den);
    EXPECT_EQ(gcd128(num, den), euclid_gcd(num, den));
    // Shared factors, so normalize also divides.
    const i128 k = random_magnitude(rng, 12);
    if (num_bits + 12 < 127 && den_bits + 12 < 127) expect_normalized(num * k, den * k);
    return Rational(num, den);
  };
  for (int i = 0; i < 140000; ++i) {
    const int mode = static_cast<int>(rng.uniform(0, 3));
    if (mode == 3) {
      const i128 den = random_magnitude(rng, static_cast<int>(rng.uniform(64, 65)));
      const Rational x(random_magnitude(rng, 64) * (rng.chance(1, 2) ? 1 : -1), den);
      const Rational y(random_magnitude(rng, 64) * (rng.chance(1, 2) ? 1 : -1), den);
      ASSERT_EQ(order_of(x, y), reference_order(x, y).value())
          << "pair " << i << ": " << x << " vs " << y;
      continue;
    }
    const Rational x =
        mode == 2 ? random_rational(100, 26) : random_rational(62, mode == 0 ? 62 : 26);
    const Rational y = mode == 0 ? random_rational(62, 62) : random_rational(100, 26);
    const int want = reference_order(x, y).value();
    ASSERT_EQ(order_of(x, y), want) << "pair " << i << ": " << x << " vs " << y;
    ASSERT_EQ(order_of(y, x), -want) << "pair " << i;
    ASSERT_EQ(order_of(x, x), 0) << "pair " << i;
  }
}

// reciprocal() swaps the words of a reduced fraction and moves the sign to
// the numerator, with no gcd. The reference is the normalizing constructor
// on the swapped words; operator/= multiplies by the reciprocal, so each
// quotient must equal the product with that reference (or both overflow).
// 10^5 seeded fractions of both signs, one in four with denominator 1, with
// numerators and denominators of 1, 62, 63, 64 and 126 bits.
TEST(Rational, ReciprocalMatchesNormalizedReference) {
  Rng rng(23);
  const std::vector<int> bits{1, 62, 63, 64, 126};
  const auto random_rational = [&] {
    const i128 num = random_magnitude(rng, rng.pick(bits)) * (rng.chance(1, 2) ? 1 : -1);
    const i128 den = rng.chance(1, 4) ? 1 : random_magnitude(rng, rng.pick(bits));
    return Rational(num, den);
  };
  int quotients = 0;
  int overflows = 0;
  for (int i = 0; i < 100000; ++i) {
    const Rational x = random_rational();
    const Rational want(x.den(), x.num());
    const Rational got = x.reciprocal();
    ASSERT_EQ(got.num(), want.num()) << "fraction " << i << ": " << x;
    ASSERT_EQ(got.den(), want.den()) << "fraction " << i << ": " << x;

    const Rational y = random_rational();
    std::optional<Rational> quotient;
    std::optional<Rational> product;
    try {
      Rational q = y;
      q /= x;
      quotient = q;
    } catch (const OverflowError&) {
    }
    try {
      product = y * want;
    } catch (const OverflowError&) {
    }
    ASSERT_EQ(quotient.has_value(), product.has_value()) << y << " / " << x;
    if (quotient) {
      ASSERT_EQ(*quotient, *product) << y << " / " << x;
      ++quotients;
    } else {
      ++overflows;
    }
  }
  EXPECT_GT(quotients, 20000);
  EXPECT_GT(overflows, 20000);
  EXPECT_THROW((void)Rational{}.reciprocal(), ModelError);
  EXPECT_THROW((void)(Rational{3} / Rational{}), ModelError);
}

// Property sweep: field axioms and order consistency on random rationals.
class RationalProperty : public ::testing::TestWithParam<u64> {};

TEST_P(RationalProperty, FieldAndOrderLaws) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Rational a(rng.uniform(-1000, 1000), rng.uniform(1, 1000));
    const Rational b(rng.uniform(-1000, 1000), rng.uniform(1, 1000));
    const Rational c(rng.uniform(-1000, 1000), rng.uniform(1, 1000));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + b - b, a);
    if (!b.is_zero()) {
      EXPECT_EQ(a * b / b, a);
    }
    // Order consistency with double approximation (wide tolerance).
    if (a < b) {
      EXPECT_LT(a.to_double(), b.to_double() + 1e-9);
    }
    // floor/ceil bracket.
    EXPECT_LE(Rational(a.floor(), 1), a);
    EXPECT_GE(Rational(a.ceil(), 1), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalProperty, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace kp
