#include "nn/elementary.hpp"

#include "nn/lanes.hpp"

#include <bit>
#include <cstddef>
#include <limits>

namespace ecthub::nn::elementary {

namespace {

// exp and log run at the baseline width only: one lane of W = 2 code.
using Vec = lanes::Vec<2>;
using Bits = lanes::Bits<2>;
using lanes::kExponentUnit;
using lanes::kInvLn2;
using lanes::kLn2Hi;
using lanes::kLn2Lo;
using lanes::kOneBits;
using lanes::kShift;

Bits bits_of(Vec v) { return std::bit_cast<Bits>(v); }
Vec from_bits(Bits b) { return std::bit_cast<Vec>(b); }

Vec pow2(Vec shifted_k) {
  Vec out;
  lanes::pow2<2>(shifted_k, out);
  return out;
}

// e^x = 2^k e^r, r = x - k ln2 carried as r + r_err, with 2^k applied as two
// normal factors so that results down in the subnormal range round once.
Vec exp_lanes(Vec x) {
  x = x > 710.0 ? Vec{} + 710.0 : x;     // e^710 overflows to +inf
  x = x < -746.0 ? Vec{} - 746.0 : x;    // e^-746 rounds to +0; NaN stays
  Vec k = x * kInvLn2 + kShift;
  Vec k1 = (k - kShift) * 0.5 + kShift;  // round(k / 2)
  const Vec s1 = pow2(k1);
  k -= kShift;
  k1 -= kShift;
  const Vec s2 = pow2((k - k1) + kShift);

  const Vec r_hi = x - k * kLn2Hi;  // exact
  const Vec r = r_hi - k * kLn2Lo;
  const Vec r_err = (r_hi - r) - k * kLn2Lo;
  Vec tail;
  lanes::expm1_tail<2>(r, tail);
  const Vec one_r = 1.0 + r;
  const Vec one_r_err = (1.0 - one_r) + r;  // Fast2Sum: |r| < 1
  const Vec p = one_r + (one_r_err + (tail + r_err));
  return (p * s1) * s2;
}

// log x = k ln2 + log m with m = x / 2^k in [sqrt(1/2), sqrt(2)): fdlibm's
// e_log.c reduction (f = m - 1, s = f / (2 + f)) and minimax coefficients
// Lg1..Lg7, its error below 1 ULP.  Subnormal x is scaled by 2^54 first;
// zero, negative, infinite and NaN inputs are blended in at the end.
Vec log_lanes(Vec x) {
  const auto subnormal = x < 0x1p-1022;
  const Vec xs = subnormal ? x * 0x1p54 : x;
  const Vec k_adjust = subnormal ? Vec{} + 54.0 : Vec{};

  // The biased exponent of xs / sqrt(1/2), taken from the encoding: adding
  // 1.0's encoding minus sqrt(1/2)'s carries into the exponent field exactly
  // when the mantissa is at least sqrt(1/2)'s.
  const Bits bits = bits_of(xs);
  const Bits biased = (bits + (kOneBits - 0x3fe6a09e667f3bcdULL)) / kExponentUnit;
  const Vec m = from_bits(bits - biased * kExponentUnit + kOneBits);
  // The integer as a double: OR it into 2^52's mantissa, subtract 2^52.
  const Vec k = (from_bits(biased | 0x4330000000000000ULL) - (0x1p52 + 1023.0)) - k_adjust;

  const Vec f = m - 1.0;  // exact
  const Vec hfsq = 0.5 * f * f;
  const Vec s = f / (2.0 + f);
  const Vec z = s * s;
  const Vec w = z * z;
  const Vec t1 = w * (0x1.999999997fa04p-2 + w * (0x1.c71c51d8e78afp-3 + w * 0x1.39a09d078c69fp-3));
  const Vec t2 = z * (0x1.5555555555593p-1 +
                      w * (0x1.2492494229359p-2 +
                           w * (0x1.7466496cb03dep-3 + w * 0x1.2f112df3e5244p-3)));
  const Vec r = t2 + t1;
  Vec out = k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  out = x < kInf ? out : x;  // +inf and NaN pass through
  out = x < 0.0 ? Vec{} + std::numeric_limits<double>::quiet_NaN() : out;
  out = x == 0.0 ? Vec{} - kInf : out;
  return out;
}

using TanhSpan = void (*)(double*, std::size_t) noexcept;

// The widest instantiation this CPU runs, bound before main.
const TanhSpan tanh_kernel = lanes::widest<TanhSpan>(
    &lanes::tanh_span_w<2>, &lanes::tanh_span_w<4>, &lanes::tanh_span_w<8>);

}  // namespace

double tanh(double x) noexcept {
  Vec v = {x, x};
  lanes::tanh_lanes<2>(v);
  return v[0];
}

double exp(double x) noexcept { return exp_lanes(Vec{x, x})[0]; }

double log(double x) noexcept { return log_lanes(Vec{x, x})[0]; }

void tanh_inplace(std::span<double> xs) noexcept { tanh_kernel(xs.data(), xs.size()); }

double powi(double base, std::uint64_t n) noexcept {
  double result = 1.0;
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) result *= base;
    base *= base;
  }
  return result;
}

}  // namespace ecthub::nn::elementary

// The per-width entry points of tanh (nn/lanes.hpp): one lane body,
// compiled for each width's instruction set.
namespace ecthub::nn::lanes {

template <>
void tanh_span_w<2>(double* p, std::size_t n) noexcept {
  tanh_span<2>(p, n);
}

template <>
[[gnu::target("avx2")]] void tanh_span_w<4>(double* p, std::size_t n) noexcept {
  tanh_span<4>(p, n);
}

template <>
[[gnu::target("avx512f")]] void tanh_span_w<8>(double* p, std::size_t n) noexcept {
  tanh_span<8>(p, n);
}

}  // namespace ecthub::nn::lanes
