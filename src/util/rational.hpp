// Exact rational numbers on checked 128-bit integers.
//
// Throughput values, schedule start times and MCRP arc weights are exact
// fractions; we normalize eagerly (gcd-reduced, positive denominator) so
// intermediate magnitudes stay small, and all products go through checked
// multiplication — an overflow raises kp::OverflowError rather than
// corrupting a result. Numerator and denominator live in the symmetric
// i128 range of util/checked.hpp: INT128_MIN is rejected on construction
// and never produced by arithmetic, so negation is always exact.
//
// Most values fit in 64 bits, and the hot primitives run on machine words
// there: gcd128 finishes on u64, normalize returns early when the gcd is 1
// and divides in i64 when both words are below 2^63, and comparison of
// four such words is one i128 cross-multiplication (products below 2^126).
// Larger words take the 128-bit paths; comparison then never overflows: it
// uses a Euclidean continued-fraction descent instead of cross-
// multiplication.
#pragma once

#include <compare>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

#include "util/checked.hpp"

namespace kp {

class Rational {
 public:
  /// Zero.
  constexpr Rational() noexcept = default;

  /// Integer value n/1.
  constexpr Rational(i64 n) noexcept : num_(n) {}  // NOLINT(google-explicit-constructor)

  /// n/d, normalized. Throws ModelError if d == 0, and OverflowError if n
  /// or d is INT128_MIN (outside the symmetric range).
  Rational(i128 n, i128 d);

  [[nodiscard]] static Rational of(i64 n, i64 d) { return Rational(i128{n}, i128{d}); }

  [[nodiscard]] constexpr i128 num() const noexcept { return num_; }
  [[nodiscard]] constexpr i128 den() const noexcept { return den_; }

  [[nodiscard]] constexpr bool is_zero() const noexcept { return num_ == 0; }
  [[nodiscard]] constexpr bool is_integer() const noexcept { return den_ == 1; }
  [[nodiscard]] constexpr int sign() const noexcept { return num_ < 0 ? -1 : (num_ > 0 ? 1 : 0); }

  [[nodiscard]] i128 floor() const noexcept { return floor_div(num_, den_); }
  [[nodiscard]] i128 ceil() const noexcept { return ceil_div(num_, den_); }

  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  /// "n/d", or just "n" when integral.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] Rational operator-() const noexcept {
    Rational r;
    r.num_ = -num_;
    r.den_ = den_;
    return r;
  }

  /// 1/x, built by swapping the words (a reduced fraction's swap is
  /// reduced, so no gcd runs). Throws ModelError for zero.
  [[nodiscard]] Rational reciprocal() const;

  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  Rational& operator/=(const Rational& o);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

  friend bool operator==(const Rational& a, const Rational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;  // both normalized
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b) noexcept;

  friend std::ostream& operator<<(std::ostream& os, const Rational& r);

 private:
  void normalize();

  i128 num_{0};
  i128 den_{1};  // invariant: den_ > 0 and gcd(|num_|, den_) == 1
};

/// min/max helpers (std::min needs const refs of same type; these read better).
[[nodiscard]] inline const Rational& rat_min(const Rational& a, const Rational& b) noexcept {
  return b < a ? b : a;
}
[[nodiscard]] inline const Rational& rat_max(const Rational& a, const Rational& b) noexcept {
  return a < b ? b : a;
}

}  // namespace kp

template <>
struct std::hash<kp::Rational> {
  std::size_t operator()(const kp::Rational& r) const noexcept {
    const auto lo = static_cast<kp::u64>(static_cast<unsigned __int128>(r.num()));
    const auto hi = static_cast<kp::u64>(static_cast<unsigned __int128>(r.den()));
    return std::hash<kp::u64>{}(lo * 0x9e3779b97f4a7c15ULL ^ hi);
  }
};
