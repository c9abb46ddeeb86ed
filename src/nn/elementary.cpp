#include "nn/elementary.hpp"

#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>

namespace ecthub::nn::elementary {

namespace {

// Two doubles per vector (an SSE2 xmm register on x86-64), as in matrix.cpp.
// Comparisons yield per-lane all-ones/all-zeros masks and `m ? a : b`
// evaluates both sides and blends, so no lane code below branches.
using Vec = double __attribute__((vector_size(2 * sizeof(double))));
using Bits = std::uint64_t __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(double);

Bits bits_of(Vec v) { return std::bit_cast<Bits>(v); }
Vec from_bits(Bits b) { return std::bit_cast<Vec>(b); }

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;  // 1.0
// The exponent field's lowest bit.  Multiplying or dividing a Bits vector
// by it compiles to the same psllq/psrlq as a shift by 52, which GCC 12's
// -fanalyzer misreads as a shift past the element width.
constexpr std::uint64_t kExponentUnit = std::uint64_t{1} << 52;

// x / ln2 rounded to an integer k: adding 1.5 * 2^52 leaves k in the low
// bits of the sum's encoding (two's complement, |k| < 2^51) and k itself
// after subtracting it again.  Cody-Waite splits ln2 = kLn2Hi + kLn2Lo with
// kLn2Hi's low 32 bits zero, so k * kLn2Hi is exact for |k| < 2^20.
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
constexpr double kShift = 0x1.8p52;
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// 2^k from the rounding sum's encoding: (k << 52) + the encoding of 1.0 puts
// k + 1023 in the exponent field (the sum's high bits shift out), valid for
// -1022 <= k <= 1023.
Vec pow2(Vec shifted_k) { return from_bits(bits_of(shifted_k) * kExponentUnit + kOneBits); }

// e^r - 1 - r for |r| <= ln2 / 2: r^2 times the Taylor series 1/2! + r/3!
// + ... + r^11/13!, whose truncation error stays below 0.1 ULP of e^r - 1.
// Estrin's scheme: the pairs are independent, so the dependency chain is
// four multiply-adds deep instead of Horner's eleven.  The kernels below are
// forced inline so that the loop in tanh_inplace holds no call.
[[gnu::always_inline]] inline Vec expm1_tail(Vec r) {
  const Vec r2 = r * r;
  const Vec r4 = r2 * r2;
  const Vec a01 = 0.5 + r * 0x1.5555555555555p-3;
  const Vec a23 = 0x1.5555555555555p-5 + r * 0x1.1111111111111p-7;
  const Vec a45 = 0x1.6c16c16c16c17p-10 + r * 0x1.a01a01a01a01ap-13;
  const Vec a67 = 0x1.a01a01a01a01ap-16 + r * 0x1.71de3a556c734p-19;
  const Vec a89 = 0x1.27e4fb7789f5cp-22 + r * 0x1.ae64567f544e4p-26;
  const Vec a1011 = 0x1.1eed8eff8d898p-29 + r * 0x1.6124613a86d09p-33;
  const Vec b0 = a01 + r2 * a23;
  const Vec b1 = a45 + r2 * a67;
  const Vec b2 = a89 + r2 * a1011;
  const Vec p = b0 + r4 * (b1 + r4 * b2);
  return r2 * p;
}

// tanh |x| = t / (t + 2) with t = e^(2|x|) - 1, carried as t_hi + t_lo so
// that neither the subtraction of 1 nor the quotient loses the low bits;
// the sign is copied back at the end, which makes tanh odd bit for bit.
// Worst error seen over 3e7 inputs: 1.45 ULP, at |x| near ln2 / 4 where k
// steps from 0 to 1.
[[gnu::always_inline]] inline Vec tanh_lanes(Vec x) {
  const Bits sign = bits_of(x) & kSignBit;
  Vec a = from_bits(bits_of(x) & ~kSignBit);
  a = a > 20.0 ? Vec{} + 20.0 : a;  // tanh rounds to 1 from 19.07; NaN stays
  const Vec y = a + a;

  Vec k = y * kInvLn2 + kShift;
  const Vec s = pow2(k);  // 2^k, 0 <= k <= 58
  k -= kShift;
  const Vec r_hi = y - k * kLn2Hi;  // exact
  const Vec r = r_hi - k * kLn2Lo;
  const Vec r_err = (r_hi - r) - k * kLn2Lo;

  // e^y - 1 = (2^k - 1) + 2^k r + 2^k (tail + r_err): scaling by 2^k is
  // exact, and two Fast2Sum steps (each adding the smaller term to the
  // larger) keep the rounding errors in t_lo.
  const Vec big = s - 1.0;
  const Vec mid = s * r;
  const Vec u = big + mid;
  const Vec small = s * (expm1_tail(r) + r_err) + ((big - u) + mid);
  const Vec t_hi = u + small;
  const Vec t_lo = (u - t_hi) + small;

  // q = t / (t + 2): d + d_lo = t_hi + 2 exactly (Knuth's TwoSum) plus t_lo,
  // and (t_hi + t_lo) / (d + d_lo) = q0 + (t_lo - q0 d_lo) / d to first
  // order, with q0 = t_hi / d rounded once.
  const Vec d = t_hi + 2.0;
  const Vec d_t = d - t_hi;
  const Vec d_lo = ((t_hi - (d - d_t)) + (2.0 - d_t)) + t_lo;
  const Vec q0 = t_hi / d;
  const Vec q = q0 + (t_lo - q0 * d_lo) / d;
  return from_bits(bits_of(q) | sign);
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
  const Vec one_r = 1.0 + r;
  const Vec one_r_err = (1.0 - one_r) + r;  // Fast2Sum: |r| < 1
  const Vec p = one_r + (one_r_err + (expm1_tail(r) + r_err));
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

}  // namespace

double tanh(double x) noexcept { return tanh_lanes(Vec{x, x})[0]; }

double exp(double x) noexcept { return exp_lanes(Vec{x, x})[0]; }

double log(double x) noexcept { return log_lanes(Vec{x, x})[0]; }

void tanh_inplace(std::span<double> xs) noexcept {
  double* p = xs.data();
  std::size_t i = 0;
  for (; i + kLanes <= xs.size(); i += kLanes) {
    Vec v;
    std::memcpy(&v, p + i, sizeof v);
    v = tanh_lanes(v);
    std::memcpy(p + i, &v, sizeof v);
  }
  if (i < xs.size()) p[i] = elementary::tanh(p[i]);
}

double powi(double base, std::uint64_t n) noexcept {
  double result = 1.0;
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) result *= base;
    base *= base;
  }
  return result;
}

}  // namespace ecthub::nn::elementary
