#include "common/elementary.hpp"

#include "common/exp_kernel.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace ecthub::elementary {

namespace {

using kernel::kExponentUnit;
using kernel::kInvLn2;
using kernel::kLn2Hi;
using kernel::kLn2Lo;
using kernel::kOneBits;
using kernel::kShift;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

double pow2(double shifted_k) {
  double out;
  kernel::pow2<std::uint64_t>(shifted_k, out);
  return out;
}

// ------------------------------------------------------------- sin, cos

// pi/2 = kPio2_1 + kPio2_2 + kPio2_3 + kPio2_3t to 152 bits: three 33-bit
// parts, so k times each is exact for k < 2^20, and a 53-bit tail.
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
constexpr double kPio2_1 = 0x1.921fb544p+0;
constexpr double kPio2_2 = 0x1.0b4611a6p-34;
constexpr double kPio2_3 = 0x1.3198a2ep-69;
constexpr double kPio2_3t = 0x1.b839a252049c1p-104;

/// The rounding error of s = a + b (Knuth's TwoSum): a + b == s + err
/// exactly.
double two_sum_err(double a, double b, double s) {
  const double bb = s - a;
  return (a - (s - bb)) + (b - bb);
}

/// a = k pi/2 + (hi + lo) for 0 <= a <= 2^20: |hi + lo| <= pi/4 plus a
/// rounding of k, quadrant = k mod 4.  a - k * kPio2_1 is exact (Sterbenz),
/// the next two parts are subtracted with their rounding errors kept, so
/// hi + lo is off by less than 2^-140 absolute.  The closest double to a
/// multiple of pi/2 below 2^20 (45.553093477052002) leaves |hi| ~ 2^-60.5,
/// still 80 bits above that error.
struct Reduced {
  double hi;
  double lo;
  std::uint64_t quadrant;
};

Reduced reduce_pio2(double a) {
  const double shifted = a * kTwoOverPi + kShift;
  const double k = shifted - kShift;
  const double r1 = a - k * kPio2_1;
  const double p2 = k * kPio2_2;
  const double r2 = r1 - p2;
  const double e2 = two_sum_err(r1, -p2, r2);
  const double p3 = k * kPio2_3;
  const double r3 = r2 - p3;
  const double e3 = two_sum_err(r2, -p3, r3);
  const double tail = (e2 + e3) - k * kPio2_3t;
  const double hi = r3 + tail;
  return {hi, (r3 - hi) + tail, std::bit_cast<std::uint64_t>(shifted) & 3};
}

// sin and cos of x + y, |x + y| <= ~pi/4, |y| <= ulp(x) / 2: fdlibm's
// __kernel_sin and __kernel_cos (FreeBSD msun, k_sin.c and k_cos.c; "Developed
// at SunPro, a Sun Microsystems, Inc. business. Permission to use, copy,
// modify, and distribute this software is freely granted, provided that
// this notice is preserved"), their polynomial errors below 2^-58.
double sin_kernel(double x, double y) {
  const double z = x * x;
  const double w = z * z;
  const double r = 0x1.111111110f8a6p-7 +
                   z * (-0x1.a01a019c161d5p-13 + z * 0x1.71de357b1fe7dp-19) +
                   z * w * (-0x1.ae5e68a2b9cebp-26 + z * 0x1.5d93a5acfd57cp-33);
  const double v = z * x;
  return x - ((z * (0.5 * y - v * r) - y) - v * -0x1.5555555555549p-3);
}

double cos_kernel(double x, double y) {
  const double z = x * x;
  const double w = z * z;
  const double r =
      z * (0x1.555555555554cp-5 + z * (-0x1.6c16c16c15177p-10 + z * 0x1.a01a019cb159p-16)) +
      w * w * (-0x1.27e4f809c52adp-22 + z * (0x1.1ee9ebdb4b1c4p-29 + z * -0x1.8fae9be8838d4p-37));
  const double hz = 0.5 * z;
  const double one_hz = 1.0 - hz;
  return one_hz + (((1.0 - one_hz) - hz) + (z * r - x * y));
}

/// sin(a + q0 pi/2) for 0 <= a <= 2^20; NaN for larger a, inf and NaN.
double sin_quadrant(double a, std::uint64_t q0) {
  const Reduced r = reduce_pio2(a);
  const std::uint64_t q = r.quadrant + q0;
  const double s = sin_kernel(r.hi, r.lo);
  const double c = cos_kernel(r.hi, r.lo);
  double out = (q & 1) != 0 ? c : s;
  out = (q & 2) != 0 ? -out : out;
  return a <= 0x1p20 ? out : kNan;
}

// ------------------------------------------------------------------ atan

// fdlibm's s_atan.c (same notice as above): atan of the breakpoints 0.5, 1,
// 1.5 and inf as hi + lo, and the odd polynomial in u^2, error below 1 ULP.
constexpr double kAtanHi[] = {0x1.dac670561bb4fp-2, 0x1.921fb54442d18p-1, 0x1.f730bd281f69bp-1,
                              0x1.921fb54442d18p+0};
constexpr double kAtanLo[] = {0x1.a2b7f222f65e2p-56, 0x1.1a62633145c07p-55,
                              0x1.007887af0cbbdp-56, 0x1.1a62633145c07p-54};
constexpr double kPi = 0x1.921fb54442d18p+1;
constexpr double kPiLo = 0x1.1a62633145c07p-53;

/// atan(t) for t >= 0 (+inf included): t is reduced against the nearest
/// breakpoint first.
double atan_nonneg(double t) {
  int id = -1;
  double u = t;
  if (t >= 0.4375) {
    if (t < 0.6875) {
      id = 0;
      u = (2.0 * t - 1.0) / (2.0 + t);
    } else if (t < 1.1875) {
      id = 1;
      u = (t - 1.0) / (t + 1.0);
    } else if (t < 2.4375) {
      id = 2;
      u = (t - 1.5) / (1.0 + 1.5 * t);
    } else {
      id = 3;
      u = -1.0 / t;
    }
  }
  const double z = u * u;
  const double w = z * z;
  const double s1 =
      z * (0x1.555555555550dp-2 +
           w * (0x1.24924920083ffp-3 +
                w * (0x1.745cdc54c206ep-4 +
                     w * (0x1.10d66a0d03d51p-4 +
                          w * (0x1.97b4b24760debp-5 + w * 0x1.0ad3ae322da11p-6)))));
  const double s2 =
      w * (-0x1.999999998ebc4p-3 +
           w * (-0x1.c71c6fe231671p-4 +
                w * (-0x1.3b0f2af749a6dp-4 +
                     w * (-0x1.dde2d52defd9ap-5 + w * -0x1.2b4442c6a6c2fp-5))));
  if (id < 0) return u - u * (s1 + s2);
  return kAtanHi[id] - ((u * (s1 + s2) - kAtanLo[id]) - u);
}

}  // namespace

// e^x = 2^k e^r, r = x - k ln2 carried as r + r_err, with 2^k applied as two
// normal factors so that results down in the subnormal range round once.
double exp(double x) noexcept {
  x = x > 710.0 ? 710.0 : x;    // e^710 overflows to +inf
  x = x < -746.0 ? -746.0 : x;  // e^-746 rounds to +0; NaN stays
  double k = x * kInvLn2 + kShift;
  double k1 = (k - kShift) * 0.5 + kShift;  // round(k / 2)
  const double s1 = pow2(k1);
  k -= kShift;
  k1 -= kShift;
  const double s2 = pow2((k - k1) + kShift);

  const double r_hi = x - k * kLn2Hi;  // exact
  const double r = r_hi - k * kLn2Lo;
  const double r_err = (r_hi - r) - k * kLn2Lo;
  double tail;
  kernel::expm1_tail(r, tail);
  const double one_r = 1.0 + r;
  const double one_r_err = (1.0 - one_r) + r;  // Fast2Sum: |r| < 1
  const double p = one_r + (one_r_err + (tail + r_err));
  return (p * s1) * s2;
}

// log x = k ln2 + log m with m = x / 2^k in [sqrt(1/2), sqrt(2)): fdlibm's
// e_log.c reduction (f = m - 1, s = f / (2 + f)) and minimax coefficients
// Lg1..Lg7, its error below 1 ULP.  Subnormal x is scaled by 2^54 first;
// zero, negative, infinite and NaN inputs are blended in at the end.
double log(double x) noexcept {
  const bool subnormal = x < 0x1p-1022;
  const double xs = subnormal ? x * 0x1p54 : x;
  const double k_adjust = subnormal ? 54.0 : 0.0;

  // The biased exponent of xs / sqrt(1/2), taken from the encoding: adding
  // 1.0's encoding minus sqrt(1/2)'s carries into the exponent field exactly
  // when the mantissa is at least sqrt(1/2)'s.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(xs);
  const std::uint64_t biased = (bits + (kOneBits - 0x3fe6a09e667f3bcdULL)) / kExponentUnit;
  const double m = std::bit_cast<double>(bits - biased * kExponentUnit + kOneBits);
  // The integer as a double: OR it into 2^52's mantissa, subtract 2^52.
  const double k =
      (std::bit_cast<double>(biased | 0x4330000000000000ULL) - (0x1p52 + 1023.0)) - k_adjust;

  const double f = m - 1.0;  // exact
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 =
      w * (0x1.999999997fa04p-2 + w * (0x1.c71c51d8e78afp-3 + w * 0x1.39a09d078c69fp-3));
  const double t2 = z * (0x1.5555555555593p-1 +
                         w * (0x1.2492494229359p-2 +
                              w * (0x1.7466496cb03dep-3 + w * 0x1.2f112df3e5244p-3)));
  const double r = t2 + t1;
  double out = k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);

  out = x < kInf ? out : x;  // +inf and NaN pass through
  out = x < 0.0 ? kNan : out;
  out = x == 0.0 ? -kInf : out;
  return out;
}

// sin is odd: the sign of x is copied back onto sin |x|.
double sin(double x) noexcept {
  const std::uint64_t sign = std::bit_cast<std::uint64_t>(x) & kSignBit;
  const double s = sin_quadrant(std::fabs(x), 0);
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(s) ^ sign);
}

// cos |x| = sin(|x| + pi/2).
double cos(double x) noexcept { return sin_quadrant(std::fabs(x), 1); }

// fdlibm's e_atan2.c: atan |y / x|, folded onto the left half-plane as
// pi - atan with pi's low part, and signed as y.  The axes and the
// infinities are exact; where the quotient overflows atan sees +inf and
// returns pi/2, and where it underflows the result is the quotient itself.
double atan2(double y, double x) noexcept {
  if (std::isnan(x) || std::isnan(y)) return x + y;
  const double ax = std::fabs(x);
  const double ay = std::fabs(y);
  double z = 0.0;  // y = +-0
  if (ax == kInf && ay == kInf) {
    z = kAtanHi[1];  // pi/4
  } else if (ay != 0.0) {
    if (ax == 0.0 || ay == kInf) return std::copysign(kAtanHi[3], y);  // +-pi/2
    z = atan_nonneg(ay / ax);
  }
  if (std::signbit(x)) z = kPi - (z - kPiLo);
  return std::copysign(z, y);
}

}  // namespace ecthub::elementary
