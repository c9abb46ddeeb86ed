// The e^r kernel shared by common/elementary's exp and log and by the NN's
// tanh lanes (nn/lanes.hpp): the Cody-Waite constants, 2^k from a rounding
// sum, and the expm1 tail polynomial.
//
// Each helper is written once over a value type V that is either double or
// a GCC vector of doubles: elementwise vector arithmetic rounds every lane
// exactly like the scalar operation, so a scalar call and any vector lane
// return the same bits.  The helpers are forced inline and take and give
// their values by reference, so a 32- or 64-byte vector never crosses a
// call boundary compiled without AVX (-Wpsabi).
#pragma once

#include <cstdint>

namespace ecthub::elementary::kernel {

inline constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;  // 1.0
// The exponent field's lowest bit.  Multiplying or dividing an integer
// vector by it compiles to the same psllq/psrlq as a shift by 52, which
// GCC 12's -fanalyzer misreads as a shift past the element width.
inline constexpr std::uint64_t kExponentUnit = std::uint64_t{1} << 52;

// x / ln2 rounded to an integer k: adding 1.5 * 2^52 leaves k in the low
// bits of the sum's encoding (two's complement, |k| < 2^51) and k itself
// after subtracting it again.  Cody-Waite splits ln2 = kLn2Hi + kLn2Lo with
// kLn2Hi's low 32 bits zero, so k * kLn2Hi is exact for |k| < 2^20.
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
inline constexpr double kShift = 0x1.8p52;
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

/// 2^k from the rounding sum's encoding: (k << 52) + the encoding of 1.0
/// puts k + 1023 in the exponent field (the sum's high bits shift out),
/// valid for -1022 <= k <= 1023.  B is V's integer counterpart
/// (std::uint64_t for double).
template <class B, class V>
[[gnu::always_inline]] inline void pow2(const V& shifted_k, V& out) {
  out = __builtin_bit_cast(V, __builtin_bit_cast(B, shifted_k) * kExponentUnit + kOneBits);
}

/// e^r - 1 - r for |r| <= ln2 / 2: r^2 times the Taylor series 1/2! + r/3!
/// + ... + r^11/13!, whose truncation error stays below 0.1 ULP of e^r - 1.
/// Estrin's scheme: the pairs are independent, so the dependency chain is
/// four multiply-adds deep instead of Horner's eleven.
template <class V>
[[gnu::always_inline]] inline void expm1_tail(const V& r, V& out) {
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const V a01 = 0.5 + r * 0x1.5555555555555p-3;
  const V a23 = 0x1.5555555555555p-5 + r * 0x1.1111111111111p-7;
  const V a45 = 0x1.6c16c16c16c17p-10 + r * 0x1.a01a01a01a01ap-13;
  const V a67 = 0x1.a01a01a01a01ap-16 + r * 0x1.71de3a556c734p-19;
  const V a89 = 0x1.27e4fb7789f5cp-22 + r * 0x1.ae64567f544e4p-26;
  const V a1011 = 0x1.1eed8eff8d898p-29 + r * 0x1.6124613a86d09p-33;
  const V b0 = a01 + r2 * a23;
  const V b1 = a45 + r2 * a67;
  const V b2 = a89 + r2 * a1011;
  const V p = b0 + r4 * (b1 + r4 * b2);
  out = r2 * p;
}

}  // namespace ecthub::elementary::kernel
