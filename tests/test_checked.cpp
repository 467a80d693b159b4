// Unit tests for overflow-checked integer arithmetic (util/checked.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "util/checked.hpp"
#include "util/error.hpp"

namespace kp {
namespace {

TEST(Checked, AddBasics) {
  EXPECT_EQ(checked_add(i64{2}, i64{3}), 5);
  EXPECT_EQ(checked_add(i64{-2}, i64{3}), 1);
  EXPECT_EQ(checked_add(INT64_MAX - 1, i64{1}), INT64_MAX);
}

TEST(Checked, AddOverflowThrows) {
  EXPECT_THROW((void)checked_add(INT64_MAX, i64{1}), OverflowError);
  EXPECT_THROW((void)checked_add(INT64_MIN, i64{-1}), OverflowError);
}

TEST(Checked, SubOverflowThrows) {
  EXPECT_THROW((void)checked_sub(INT64_MIN, i64{1}), OverflowError);
  EXPECT_EQ(checked_sub(i64{5}, i64{7}), -2);
}

TEST(Checked, MulBasics) {
  EXPECT_EQ(checked_mul(i64{1} << 31, i64{2}), i64{1} << 32);
  EXPECT_THROW((void)checked_mul(i64{1} << 62, i64{4}), OverflowError);
}

TEST(Checked, Mul128) {
  const i128 big = checked_mul(i128{INT64_MAX}, i128{INT64_MAX});
  EXPECT_GT(big, i128{INT64_MAX});
  EXPECT_THROW((void)checked_mul(big, big), OverflowError);
}

// The checked i128 primitives work on the symmetric range: INT128_MIN,
// whose negation does not fit, is an overflow even as an exact result.
TEST(Checked, Int128MinIsOverflow) {
  EXPECT_EQ(k_i128_min, -k_i128_max - 1);
  EXPECT_THROW((void)checked_mul(-(i128{1} << 64), i128{1} << 63), OverflowError);
  EXPECT_THROW((void)checked_mul(i128{1} << 64, -(i128{1} << 63)), OverflowError);
  EXPECT_THROW((void)checked_sub(-k_i128_max, i128{1}), OverflowError);
  EXPECT_THROW((void)checked_add(-k_i128_max, i128{-1}), OverflowError);
  EXPECT_EQ(checked_sub(-k_i128_max + 1, i128{1}), -k_i128_max);
  EXPECT_EQ(checked_add(k_i128_max - 1, i128{1}), k_i128_max);
  i128 r = 0;
  EXPECT_FALSE(try_mul(-(i128{1} << 64), i128{1} << 63, r));
  EXPECT_TRUE(try_mul(-(i128{1} << 64), (i128{1} << 63) - 1, r));
  EXPECT_EQ(r, k_i128_min + (i128{1} << 64));
}

TEST(Checked, Gcd) {
  EXPECT_EQ(gcd128(0, 0), 0);
  EXPECT_EQ(gcd128(0, 7), 7);
  EXPECT_EQ(gcd128(12, 18), 6);
  EXPECT_EQ(gcd128(-12, 18), 6);
  EXPECT_EQ(gcd128(12, -18), 6);
  EXPECT_EQ(gcd64(147, 80), 1);
}

// gcd128 runs Euclid's remainder steps on i128 while a magnitude needs
// more than 64 bits and finishes with std::gcd on u64; around the word
// boundaries it must agree with plain Euclid on i128.
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

TEST(Checked, GcdAtWordBoundaries) {
  const i128 p62 = i128{1} << 62;
  const i128 p63 = i128{1} << 63;
  const i128 p64 = i128{1} << 64;
  const std::vector<i128> values{0,       1,       2,       3,       6,           p62 - 1,
                                 p62,     p62 + 1, 3 * p62, p63 - 1, p63,         p63 + 1,
                                 p64 - 1, p64,     p64 + 1, 3 * p64, (p64 - 1) * 5, p64 * p62};
  int checked = 0;
  for (const i128 a : values) {
    for (const i128 b : values) {
      for (const i128 sa : {1, -1}) {
        for (const i128 sb : {1, -1}) {
          EXPECT_EQ(gcd128(sa * a, sb * b), euclid_gcd(a, b))
              << to_string(sa * a) << " " << to_string(sb * b);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 18 * 18);
}

TEST(Checked, Lcm) {
  EXPECT_EQ(lcm128(0, 5), 0);
  EXPECT_EQ(lcm128(4, 6), 12);
  EXPECT_EQ(lcm64(21, 6), 42);
  EXPECT_THROW((void)lcm64(INT64_MAX - 1, INT64_MAX - 2), OverflowError);
}

TEST(Checked, FloorDivNegative) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(-8, 2), -4);
  EXPECT_EQ(floor_div(0, 5), 0);
}

TEST(Checked, CeilDivNegative) {
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(8, 2), 4);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(Checked, FloorToMultiple) {
  // The paper's ⌊α⌋γ.
  EXPECT_EQ(floor_to_multiple(7, 3), 6);
  EXPECT_EQ(floor_to_multiple(-7, 3), -9);
  EXPECT_EQ(floor_to_multiple(6, 3), 6);
  EXPECT_EQ(floor_to_multiple(-6, 3), -6);
}

TEST(Checked, CeilToMultiple) {
  // The paper's ⌈α⌉γ.
  EXPECT_EQ(ceil_to_multiple(7, 3), 9);
  EXPECT_EQ(ceil_to_multiple(-7, 3), -6);
  EXPECT_EQ(ceil_to_multiple(6, 3), 6);
}

TEST(Checked, Narrow64) {
  EXPECT_EQ(narrow64(i128{42}), 42);
  EXPECT_EQ(narrow64(i128{INT64_MAX}), INT64_MAX);
  EXPECT_THROW((void)narrow64(i128{INT64_MAX} + 1), OverflowError);
  EXPECT_THROW((void)narrow64(i128{INT64_MIN} - 1), OverflowError);
}

TEST(Checked, ToString128) {
  EXPECT_EQ(to_string(i128{0}), "0");
  EXPECT_EQ(to_string(i128{-1}), "-1");
  EXPECT_EQ(to_string(i128{1234567890}), "1234567890");
  // 2^100
  i128 v = 1;
  for (int i = 0; i < 100; ++i) v *= 2;
  EXPECT_EQ(to_string(v), "1267650600228229401496703205376");
  EXPECT_EQ(to_string(-v), "-1267650600228229401496703205376");
}

// Parameterized sweep: floor/ceil-to-multiple laws over a grid.
class RoundingLaw : public ::testing::TestWithParam<std::pair<i64, i64>> {};

TEST_P(RoundingLaw, FloorCeilBracketAndDivide) {
  const auto [a, g] = GetParam();
  const i128 fl = floor_to_multiple(a, g);
  const i128 ce = ceil_to_multiple(a, g);
  EXPECT_LE(fl, i128{a});
  EXPECT_GE(ce, i128{a});
  EXPECT_EQ(fl % g, 0);
  EXPECT_EQ(ce % g, 0);
  EXPECT_LE(ce - fl, i128{g});
  if (a % g == 0) {
    EXPECT_EQ(fl, ce);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RoundingLaw, ::testing::Values(
    std::pair<i64, i64>{0, 1}, std::pair<i64, i64>{1, 1}, std::pair<i64, i64>{-1, 1},
    std::pair<i64, i64>{17, 5}, std::pair<i64, i64>{-17, 5}, std::pair<i64, i64>{100, 7},
    std::pair<i64, i64>{-100, 7}, std::pair<i64, i64>{35, 35}, std::pair<i64, i64>{-35, 35},
    std::pair<i64, i64>{36, 35}, std::pair<i64, i64>{-36, 35}, std::pair<i64, i64>{1, 1000},
    std::pair<i64, i64>{-1, 1000}, std::pair<i64, i64>{999, 1000}));

}  // namespace
}  // namespace kp
