// Elementary functions without libm: exp, log, sin, cos and atan2.
//
// glibc picks FMA/AVX2 variants of its transcendental functions at run time,
// so std::exp and friends may return different bits on different CPUs, and
// every episode series and trained weight with them.  These functions use
// only IEEE add, subtract, multiply, divide and integer bit operations on
// the double's encoding, with fixed reduction and polynomial constants: the
// same input gives the same bits on every x86-64 host (every target builds
// with -ffp-contract=off, so no multiply-add is ever fused).  sqrt needs no
// replacement: IEEE 754 rounds it correctly.
//
// Accuracy (tests/test_nn.cpp and tests/test_common.cpp, suite Elementary)
// is within 2 ULP of a long double reference: exp and log over their whole
// domain, sin and cos over |x| <= 2^20 (which holds every angle the
// simulator takes) and atan2 over every pair of finite doubles.
//
// Call them qualified (elementary::exp): ecthub_lint's determinism/libm rule
// flags unqualified and std:: calls of the libm names anywhere under src/.
#pragma once

namespace ecthub::elementary {

/// e^x.  +inf above ln(DBL_MAX) ~ 709.78, +0 below ~ -745.13 (subnormal
/// results in between), NaN propagates.
[[nodiscard]] double exp(double x) noexcept;

/// Natural logarithm.  log(+-0) = -inf, log(+inf) = +inf, NaN for x < 0,
/// NaN propagates; subnormal x is exact-scaled first.
[[nodiscard]] double log(double x) noexcept;

/// sin(x) for |x| <= 2^20, odd bit for bit (sin(-0) = -0).  NaN beyond
/// 2^20, where the argument reduction stops being exact, for +-inf and for
/// NaN.
[[nodiscard]] double sin(double x) noexcept;

/// cos(x) for |x| <= 2^20, even bit for bit.  NaN beyond 2^20, for +-inf
/// and for NaN.
[[nodiscard]] double cos(double x) noexcept;

/// The angle of (x, y) in [-pi, pi], with C99's signed zeros and
/// infinities (atan2(+-0, -0) = +-pi, atan2(+-inf, -inf) = +-3pi/4).  NaN
/// propagates.
[[nodiscard]] double atan2(double y, double x) noexcept;

}  // namespace ecthub::elementary
