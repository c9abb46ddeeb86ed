// Elementary functions of the NN library: tanh, exp and log without libm.
//
// glibc picks FMA/AVX2 variants of its transcendental functions at run time,
// so std::tanh and friends may return different bits on different CPUs, and
// trained weights with them.  These functions use only IEEE add, subtract,
// multiply, divide and integer bit operations on the double's encoding, with
// fixed reduction and polynomial constants and no data-dependent branch: the
// same input gives the same bits on every x86-64 host (the build compiles
// with -ffp-contract=off, so no multiply-add is ever fused).
//
// Every function is lane code over vectors of doubles: tanh's is written
// once for any width W (nn/lanes.hpp), exp's and log's for W = 2.
// tanh_inplace runs tanh's over a span W elements at a time at the widest
// width the CPU supports (W = 8 with AVX-512F, 4 with AVX2, else 2), picked
// once before main; the scalar functions run one lane of the W = 2 code.
// Lanes never mix, so tanh(x) is bit-identical to the element tanh_inplace
// computes for x at any position of any span, at any width.  Accuracy
// (tests/test_nn.cpp, suite Elementary) is within 2 ULP of a long double
// reference over the whole domain.
//
// Call them qualified (nn::elementary::tanh): ecthub_lint's determinism/libm
// rule flags unqualified and std:: calls of the libm names in src/nn and
// src/rl.
#pragma once

#include <cstdint>
#include <span>

namespace ecthub::nn::elementary {

/// tanh(x).  Odd bit for bit: tanh(-x) == -tanh(x), so tanh(-0) = -0.
/// tanh(+-inf) = +-1, NaN propagates, |tanh(x)| <= 1.
[[nodiscard]] double tanh(double x) noexcept;

/// e^x.  +inf above ln(DBL_MAX) ~ 709.78, +0 below ~ -745.13 (subnormal
/// results in between), NaN propagates.
[[nodiscard]] double exp(double x) noexcept;

/// Natural logarithm.  log(+-0) = -inf, log(+inf) = +inf, NaN for x < 0,
/// NaN propagates; subnormal x is exact-scaled first.
[[nodiscard]] double log(double x) noexcept;

/// tanh of every element, in place: element i becomes tanh(xs[i]) bit for
/// bit, for any length and alignment of the span.
void tanh_inplace(std::span<double> xs) noexcept;

/// base^n by binary exponentiation: exactly base at n = 1, and within
/// n * 2^-53 relative error while the result stays normal (Adam's bias
/// corrections beta^t).
[[nodiscard]] double powi(double base, std::uint64_t n) noexcept;

}  // namespace ecthub::nn::elementary
