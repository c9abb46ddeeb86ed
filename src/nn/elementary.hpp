// Elementary functions of the NN library: tanh (scalar and over a span) and
// powi, plus common/elementary's exp and log under this namespace.
//
// glibc picks FMA/AVX2 variants of its transcendental functions at run time,
// so std::tanh and friends may return different bits on different CPUs, and
// trained weights with them.  tanh uses only IEEE add, subtract, multiply,
// divide and integer bit operations on the double's encoding, with fixed
// reduction and polynomial constants and no data-dependent branch: the
// same input gives the same bits on every x86-64 host (the build compiles
// with -ffp-contract=off, so no multiply-add is ever fused).  Its e^r
// kernel is the one common/elementary's exp uses (common/exp_kernel.hpp).
//
// tanh is lane code written once for any width W (nn/lanes.hpp).
// tanh_inplace runs it over a span W elements at a time at the widest
// width the CPU supports (W = 8 with AVX-512F, 4 with AVX2, else 2), picked
// once before main; the scalar tanh runs one lane of the W = 2 code.
// Lanes never mix, so tanh(x) is bit-identical to the element tanh_inplace
// computes for x at any position of any span, at any width.  Accuracy
// (tests/test_nn.cpp, suite Elementary) is within 2 ULP of a long double
// reference over the whole domain.
//
// Call them qualified (nn::elementary::tanh): ecthub_lint's determinism/libm
// rule flags unqualified and std:: calls of the libm names under src/.
#pragma once

#include "common/elementary.hpp"

#include <cstdint>
#include <span>

namespace ecthub::nn::elementary {

/// tanh(x).  Odd bit for bit: tanh(-x) == -tanh(x), so tanh(-0) = -0.
/// tanh(+-inf) = +-1, NaN propagates, |tanh(x)| <= 1.
[[nodiscard]] double tanh(double x) noexcept;

/// common/elementary's e^x and natural logarithm.
using ::ecthub::elementary::exp;
using ::ecthub::elementary::log;

/// tanh of every element, in place: element i becomes tanh(xs[i]) bit for
/// bit, for any length and alignment of the span.
void tanh_inplace(std::span<double> xs) noexcept;

/// base^n by binary exponentiation: exactly base at n = 1, and within
/// n * 2^-53 relative error while the result stays normal (Adam's bias
/// corrections beta^t).
[[nodiscard]] double powi(double base, std::uint64_t n) noexcept;

}  // namespace ecthub::nn::elementary
