// Overflow-checked integer arithmetic on 64- and 128-bit signed integers.
//
// The throughput analyses in this library manipulate token counts that are
// products of repetition-vector entries and cumulative rates; those reach
// ~10^11 on the Echo-class benchmarks and intermediate products exceed
// 64 bits. Every arithmetic step that could wrap goes through this header
// and throws kp::OverflowError instead of producing a wrong exact result.
//
// The checked i128 primitives work on the symmetric range
// [-k_i128_max, k_i128_max]: a result equal to INT128_MIN, the one value
// whose negation does not fit, is reported as overflow too, so every value
// they return can go through abs128 and negation. gcd128 finishes on 64-bit
// words: Euclid's i128 remainder steps run only while a magnitude needs
// more than 64 bits, then std::gcd's binary algorithm takes over on u64.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>

#include "util/error.hpp"

namespace kp {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using i128 = __int128;

inline constexpr i128 k_i128_max = static_cast<i128>(~static_cast<unsigned __int128>(0) >> 1);
inline constexpr i128 k_i128_min = -k_i128_max - 1;

/// Decimal rendering of a signed 128-bit integer (no std support).
std::string to_string(i128 v);

[[noreturn]] inline void throw_overflow(const char* op) {
  throw OverflowError(std::string("in ") + op);
}

// ---- checked primitives -------------------------------------------------

[[nodiscard]] inline i64 checked_add(i64 a, i64 b) {
  i64 r = 0;
  if (__builtin_add_overflow(a, b, &r)) throw_overflow("add(i64)");
  return r;
}

[[nodiscard]] inline i64 checked_sub(i64 a, i64 b) {
  i64 r = 0;
  if (__builtin_sub_overflow(a, b, &r)) throw_overflow("sub(i64)");
  return r;
}

[[nodiscard]] inline i64 checked_mul(i64 a, i64 b) {
  i64 r = 0;
  if (__builtin_mul_overflow(a, b, &r)) throw_overflow("mul(i64)");
  return r;
}

/// Non-throwing i128 forms for callers that fall back instead of failing:
/// false when the exact result leaves the symmetric range.
[[nodiscard]] inline bool try_add(i128 a, i128 b, i128& r) noexcept {
  return !__builtin_add_overflow(a, b, &r) && r != k_i128_min;
}

[[nodiscard]] inline bool try_sub(i128 a, i128 b, i128& r) noexcept {
  return !__builtin_sub_overflow(a, b, &r) && r != k_i128_min;
}

[[nodiscard]] inline bool try_mul(i128 a, i128 b, i128& r) noexcept {
  return !__builtin_mul_overflow(a, b, &r) && r != k_i128_min;
}

[[nodiscard]] inline i128 checked_add(i128 a, i128 b) {
  i128 r = 0;
  if (!try_add(a, b, r)) throw_overflow("add(i128)");
  return r;
}

[[nodiscard]] inline i128 checked_sub(i128 a, i128 b) {
  i128 r = 0;
  if (!try_sub(a, b, r)) throw_overflow("sub(i128)");
  return r;
}

[[nodiscard]] inline i128 checked_mul(i128 a, i128 b) {
  i128 r = 0;
  if (!try_mul(a, b, r)) throw_overflow("mul(i128)");
  return r;
}

// ---- gcd / lcm -----------------------------------------------------------

/// |v|. Precondition: v != INT128_MIN (no checked primitive returns it).
[[nodiscard]] constexpr i128 abs128(i128 v) noexcept { return v < 0 ? -v : v; }

/// gcd(|a|, |b|); gcd(0, 0) == 0. Precondition: neither is INT128_MIN.
[[nodiscard]] constexpr i128 gcd128(i128 a, i128 b) noexcept {
  a = abs128(a);
  b = abs128(b);
  while (static_cast<unsigned __int128>(a | b) >> 64 != 0) {
    if (b == 0) return a;
    const i128 t = a % b;
    a = b;
    b = t;
  }
  return static_cast<i128>(std::gcd(static_cast<u64>(a), static_cast<u64>(b)));
}

[[nodiscard]] inline i64 gcd64(i64 a, i64 b) noexcept {
  return static_cast<i64>(gcd128(a, b));
}

/// lcm(|a|, |b|) with overflow checking; lcm(0, x) == 0.
[[nodiscard]] inline i128 lcm128(i128 a, i128 b) {
  if (a == 0 || b == 0) return 0;
  const i128 g = gcd128(a, b);
  return checked_mul(abs128(a) / g, abs128(b));
}

[[nodiscard]] inline i64 lcm64(i64 a, i64 b) {
  const i128 r = lcm128(a, b);
  if (r > INT64_MAX) throw_overflow("lcm(i64)");
  return static_cast<i64>(r);
}

// ---- floor/ceil division and rounding-to-multiple -------------------------

/// floor(a / b) for b > 0, correct for negative a (unlike C++ '/').
[[nodiscard]] constexpr i128 floor_div(i128 a, i128 b) noexcept {
  const i128 q = a / b;
  return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}

/// ceil(a / b) for b > 0, correct for negative a.
[[nodiscard]] constexpr i128 ceil_div(i128 a, i128 b) noexcept {
  const i128 q = a / b;
  return (a % b != 0 && ((a < 0) == (b < 0))) ? q + 1 : q;
}

/// The paper's ⌊α⌋γ = floor(α/γ)·γ (γ > 0).
[[nodiscard]] constexpr i128 floor_to_multiple(i128 a, i128 g) noexcept {
  return floor_div(a, g) * g;
}

/// The paper's ⌈α⌉γ = ceil(α/γ)·γ (γ > 0).
[[nodiscard]] constexpr i128 ceil_to_multiple(i128 a, i128 g) noexcept {
  return ceil_div(a, g) * g;
}

/// Narrow i128 -> i64, throwing when out of range.
[[nodiscard]] inline i64 narrow64(i128 v) {
  if (v > INT64_MAX || v < INT64_MIN) throw_overflow("narrow64");
  return static_cast<i64>(v);
}

}  // namespace kp
