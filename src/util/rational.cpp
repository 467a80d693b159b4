#include "util/rational.hpp"

#include <ostream>

#include "util/error.hpp"

namespace kp {

namespace {

/// |v| < 2^63: v fits an i64 whose negation fits too.
constexpr bool fits_63_bits(i128 v) noexcept { return v >= -i128{INT64_MAX} && v <= INT64_MAX; }

}  // namespace

Rational::Rational(i128 n, i128 d) : num_(n), den_(d) {
  if (d == 0) throw ModelError("rational with zero denominator");
  if (n == k_i128_min || d == k_i128_min) throw_overflow("Rational(INT128_MIN)");
  normalize();
}

void Rational::normalize() {
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  if (den_ == 1) return;
  const i128 g = gcd128(num_, den_);
  if (g == 1) return;
  if (fits_63_bits(num_) && fits_63_bits(den_)) {
    num_ = static_cast<i64>(num_) / static_cast<i64>(g);
    den_ = static_cast<i64>(den_) / static_cast<i64>(g);
    return;
  }
  num_ /= g;
  den_ /= g;
}

Rational Rational::reciprocal() const {
  if (num_ == 0) throw ModelError("reciprocal of zero");
  // Swapping a reduced fraction keeps it reduced, so no gcd runs. The sign
  // moves to the new numerator; neither word is INT128_MIN, so negating is
  // exact.
  Rational r;
  r.num_ = num_ < 0 ? -den_ : den_;
  r.den_ = num_ < 0 ? -num_ : num_;
  return r;
}

Rational& Rational::operator+=(const Rational& o) {
  // Knuth-style: pre-divide by gcd of denominators to limit magnitude.
  const i128 g = gcd128(den_, o.den_);
  const i128 b1 = den_ / g;
  const i128 d1 = o.den_ / g;
  num_ = checked_add(checked_mul(num_, d1), checked_mul(o.num_, b1));
  den_ = checked_mul(den_, d1);
  normalize();
  return *this;
}

Rational& Rational::operator-=(const Rational& o) { return *this += (-o); }

Rational& Rational::operator*=(const Rational& o) {
  // Cross-reduce before multiplying so normalized inputs cannot overflow
  // unless the reduced result itself does not fit.
  const i128 g1 = gcd128(num_, o.den_);
  const i128 g2 = gcd128(o.num_, den_);
  num_ = checked_mul(num_ / g1, o.num_ / g2);
  den_ = checked_mul(den_ / g2, o.den_ / g1);
  // Coprime already: each factor of num_ is coprime to each of den_.
  if (num_ == 0) den_ = 1;
  return *this;
}

Rational& Rational::operator/=(const Rational& o) { return *this *= o.reciprocal(); }

namespace {

/// Overflow-free ordering of a/b vs c/d with a,c >= 0 and b,d > 0,
/// by Euclidean (continued-fraction) descent — no multiplications.
std::strong_ordering compare_nonneg(i128 a, i128 b, i128 c, i128 d) noexcept {
  for (;;) {
    const i128 qa = a / b;
    const i128 qc = c / d;
    if (qa != qc) return qa <=> qc;
    const i128 ra = a % b;
    const i128 rc = c % d;
    if (ra == 0 && rc == 0) return std::strong_ordering::equal;
    if (ra == 0) return std::strong_ordering::less;
    if (rc == 0) return std::strong_ordering::greater;
    // Equal integer parts: ra/b ? rc/d  <=>  d/rc ? b/ra (reciprocals swap).
    a = d;
    const i128 old_b = b;
    b = rc;
    c = old_b;
    d = ra;
  }
}

std::strong_ordering reverse(std::strong_ordering o) noexcept {
  if (o == std::strong_ordering::less) return std::strong_ordering::greater;
  if (o == std::strong_ordering::greater) return std::strong_ordering::less;
  return o;
}

}  // namespace

std::strong_ordering operator<=>(const Rational& x, const Rational& y) noexcept {
  // Words below 2^63 keep both cross products below 2^126: exact in i128.
  if (fits_63_bits(x.num_) && fits_63_bits(x.den_) && fits_63_bits(y.num_) &&
      fits_63_bits(y.den_)) {
    return x.num_ * y.den_ <=> y.num_ * x.den_;
  }
  const int sx = x.sign();
  const int sy = y.sign();
  if (sx != sy) return sx <=> sy;
  if (sx == 0) return std::strong_ordering::equal;
  const auto mag = compare_nonneg(abs128(x.num_), x.den_, abs128(y.num_), y.den_);
  return sx > 0 ? mag : reverse(mag);
}

std::string Rational::to_string() const {
  if (den_ == 1) return kp::to_string(num_);
  return kp::to_string(num_) + "/" + kp::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) { return os << r.to_string(); }

}  // namespace kp
