// The NN's lane code, written once over W-double vectors: the GEMM tiles
// behind Matrix::matmul_rows_into and the tanh lanes behind
// elementary::tanh_inplace.
//
// Elementwise vector arithmetic rounds every lane exactly like the scalar
// operation, so the width W only decides how many output elements share a
// register, never the operations an element gets or their order: "+0.0,
// then k ascending" for a GEMM element, the same lane code for a tanh
// element.  Every instantiation therefore returns the same bits.
//
// Each width has one entry point per job, defined with the instruction set
// it needs: W = 2 for the x86-64 baseline (SSE2), W = 4 under
// [[gnu::target("avx2")]] and W = 8 under [[gnu::target("avx512f")]], never
// with "fma" (and the build's -ffp-contract=off keeps AVX-512's own
// multiply-add unfused).  matrix.cpp and elementary.cpp each bind the widest
// one the CPU runs (host_width) before main; the identity tests call every
// entry point directly.
//
// A 32- or 64-byte vector passed or returned by value from code compiled
// without AVX changes the calling convention (-Wpsabi), so the lane helpers
// below are forced inline and take and give their vectors by reference.
#pragma once

#include "common/exp_kernel.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ecthub::nn::lanes {

// The vector types are member typedefs: GCC drops vector_size from an alias
// template (`template <size_t W> using V = double __attribute__((...))` is a
// plain double), but keeps it on a class template's typedef.
template <std::size_t W>
struct VecOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};
template <std::size_t W>
struct BitsOf {
  typedef std::uint64_t type __attribute__((vector_size(W * sizeof(double))));
};
template <std::size_t W>
using Vec = typename VecOf<W>::type;
template <std::size_t W>
using Bits = typename BitsOf<W>::type;

static_assert(sizeof(Vec<2>) == 2 * sizeof(double) && sizeof(Vec<4>) == 4 * sizeof(double) &&
              sizeof(Vec<8>) == 8 * sizeof(double));

/// The widest lane width this CPU runs: 8 with AVX-512F, 4 with AVX2, else
/// 2.  It runs the CPU probe itself, so a static initializer may call it.
inline std::size_t host_width() noexcept {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
  return 2;
}

/// The entry point of host_width()'s width among the three.
template <class Fn>
Fn widest(Fn w2, Fn w4, Fn w8) noexcept {
  switch (host_width()) {
    case 8: return w8;
    case 4: return w4;
    default: return w2;
  }
}

// ---------------------------------------------------------------- GEMM

/// out(i - row_begin, j) = sum_k a(i, k) * b(k, j) for i in [row_begin,
/// row_end), a row-major (rows x inner) and b (inner x cols); out is the
/// (row_end - row_begin) x cols block, every element written.
template <std::size_t W>
void matmul_rows_w(const double* a, const double* b, double* out, std::size_t row_begin,
                   std::size_t row_end, std::size_t inner, std::size_t cols);
template <>
void matmul_rows_w<2>(const double* a, const double* b, double* out, std::size_t row_begin,
                      std::size_t row_end, std::size_t inner, std::size_t cols);
template <>
[[gnu::target("avx2")]] void matmul_rows_w<4>(const double* a, const double* b, double* out,
                                              std::size_t row_begin, std::size_t row_end,
                                              std::size_t inner, std::size_t cols);
template <>
[[gnu::target("avx512f")]] void matmul_rows_w<8>(const double* a, const double* b, double* out,
                                                 std::size_t row_begin, std::size_t row_end,
                                                 std::size_t inner, std::size_t cols);

// A Rows x 2W tile of out at column j (two W-vectors per row): a points at
// A(i, 0), out at out(i, 0).  Each element's accumulator starts at +0.0 and
// adds a(i, k) * b(k, j) for k ascending, so with inner == 0 the tile stores
// +0.0.  b is offset only inside the k loop because it may be null when
// inner == 0 (an empty matrix owns no storage).  The unroll pragmas keep
// the accumulator arrays in registers: GCC -O2 leaves these loops rolled
// and the arrays on the stack.
template <std::size_t W, std::size_t Rows>
[[gnu::always_inline]] inline void wide_tile(const double* a, const double* b, double* out,
                                             std::size_t j, std::size_t inner, std::size_t cols) {
  Vec<W> lo[Rows] = {};
  Vec<W> hi[Rows] = {};
  for (std::size_t k = 0; k < inner; ++k) {
    Vec<W> b_lo;
    Vec<W> b_hi;
    std::memcpy(&b_lo, b + k * cols + j, sizeof b_lo);
    std::memcpy(&b_hi, b + k * cols + j + W, sizeof b_hi);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < Rows; ++r) {
      const double av = a[r * inner + k];
      lo[r] += av * b_lo;
      hi[r] += av * b_hi;
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < Rows; ++r) {
    std::memcpy(out + r * cols + j, &lo[r], sizeof lo[r]);
    std::memcpy(out + r * cols + j + W, &hi[r], sizeof hi[r]);
  }
}

// The Rows x 1 tile at column j of a ragged right edge, same accumulation.
template <std::size_t Rows>
[[gnu::always_inline]] inline void narrow_tile(const double* a, const double* b, double* out,
                                               std::size_t j, std::size_t inner,
                                               std::size_t cols) {
  double acc[Rows] = {};
  for (std::size_t k = 0; k < inner; ++k) {
    const double bv = b[k * cols + j];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < Rows; ++r) acc[r] += a[r * inner + k] * bv;
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < Rows; ++r) out[r * cols + j] = acc[r];
}

// Columns [j, cols) of a Rows-row block: 2W-column tiles while they fit,
// then the right edge steps down one tile width at a time to the 4-column
// tile of W = 2, then single columns (a 3-column head stays scalar).
template <std::size_t W, std::size_t Rows>
[[gnu::always_inline]] inline void row_block(const double* a, const double* b, double* out,
                                             std::size_t j, std::size_t inner, std::size_t cols) {
  for (; j + 2 * W <= cols; j += 2 * W) wide_tile<W, Rows>(a, b, out, j, inner, cols);
  if constexpr (W > 2) {
    row_block<W / 2, Rows>(a, b, out, j, inner, cols);
  } else {
    for (; j < cols; ++j) narrow_tile<Rows>(a, b, out, j, inner, cols);
  }
}

// matmul_rows_w's body: 4-row blocks, then single rows at the ragged bottom
// edge.
template <std::size_t W>
[[gnu::always_inline]] inline void matmul_rows(const double* a, const double* b, double* out,
                                               std::size_t row_begin, std::size_t row_end,
                                               std::size_t inner, std::size_t cols) {
  std::size_t i = row_begin;
  for (; i + 4 <= row_end; i += 4) {
    row_block<W, 4>(a + i * inner, b, out + (i - row_begin) * cols, 0, inner, cols);
  }
  for (; i < row_end; ++i) {
    row_block<W, 1>(a + i * inner, b, out + (i - row_begin) * cols, 0, inner, cols);
  }
}

// ---------------------------------------------------------------- tanh

/// tanh of p[0, n) in place, bit for bit elementary::tanh of each element.
template <std::size_t W>
void tanh_span_w(double* p, std::size_t n) noexcept;
template <>
void tanh_span_w<2>(double* p, std::size_t n) noexcept;
template <>
[[gnu::target("avx2")]] void tanh_span_w<4>(double* p, std::size_t n) noexcept;
template <>
[[gnu::target("avx512f")]] void tanh_span_w<8>(double* p, std::size_t n) noexcept;

// Comparisons yield per-lane all-ones/all-zeros masks and `m ? a : b`
// evaluates both sides and blends, so no lane code branches.

inline constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

// The e^r kernel tanh shares with common/elementary's exp.
namespace kernel = ::ecthub::elementary::kernel;
using kernel::kInvLn2;
using kernel::kLn2Hi;
using kernel::kLn2Lo;
using kernel::kShift;

// tanh |x| = t / (t + 2) with t = e^(2|x|) - 1, carried as t_hi + t_lo so
// that neither the subtraction of 1 nor the quotient loses the low bits;
// the sign is copied back at the end, which makes tanh odd bit for bit.
// Worst error seen over 3e7 inputs: 1.45 ULP, at |x| near ln2 / 4 where k
// steps from 0 to 1.  In place.
template <std::size_t W>
[[gnu::always_inline]] inline void tanh_lanes(Vec<W>& x) {
  const Bits<W> sign = __builtin_bit_cast(Bits<W>, x) & kSignBit;
  Vec<W> a = __builtin_bit_cast(Vec<W>, __builtin_bit_cast(Bits<W>, x) & ~kSignBit);
  a = a > 20.0 ? Vec<W>{} + 20.0 : a;  // tanh rounds to 1 from 19.07; NaN stays
  const Vec<W> y = a + a;

  Vec<W> k = y * kInvLn2 + kShift;
  Vec<W> s;
  kernel::pow2<Bits<W>>(k, s);  // 2^k, 0 <= k <= 58
  k -= kShift;
  const Vec<W> r_hi = y - k * kLn2Hi;  // exact
  const Vec<W> r = r_hi - k * kLn2Lo;
  const Vec<W> r_err = (r_hi - r) - k * kLn2Lo;

  // e^y - 1 = (2^k - 1) + 2^k r + 2^k (tail + r_err): scaling by 2^k is
  // exact, and two Fast2Sum steps (each adding the smaller term to the
  // larger) keep the rounding errors in t_lo.
  Vec<W> tail;
  kernel::expm1_tail(r, tail);
  const Vec<W> big = s - 1.0;
  const Vec<W> mid = s * r;
  const Vec<W> u = big + mid;
  const Vec<W> small = s * (tail + r_err) + ((big - u) + mid);
  const Vec<W> t_hi = u + small;
  const Vec<W> t_lo = (u - t_hi) + small;

  // q = t / (t + 2): d + d_lo = t_hi + 2 exactly (Knuth's TwoSum) plus t_lo,
  // and (t_hi + t_lo) / (d + d_lo) = q0 + (t_lo - q0 d_lo) / d to first
  // order, with q0 = t_hi / d rounded once.
  const Vec<W> d = t_hi + 2.0;
  const Vec<W> d_t = d - t_hi;
  const Vec<W> d_lo = ((t_hi - (d - d_t)) + (2.0 - d_t)) + t_lo;
  const Vec<W> q0 = t_hi / d;
  const Vec<W> q = q0 + (t_lo - q0 * d_lo) / d;
  x = __builtin_bit_cast(Vec<W>, __builtin_bit_cast(Bits<W>, q) | sign);
}

// tanh_span_w's body: W-vectors while they fit, then one vector at each
// narrower width down to W = 2, then one lane of the W = 2 code for an odd
// last element.
template <std::size_t W>
[[gnu::always_inline]] inline void tanh_span(double* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    Vec<W> v;
    std::memcpy(&v, p + i, sizeof v);
    tanh_lanes<W>(v);
    std::memcpy(p + i, &v, sizeof v);
  }
  if constexpr (W > 2) {
    tanh_span<W / 2>(p + i, n - i);
  } else if (i < n) {
    Vec<2> v = {p[i], p[i]};
    tanh_lanes<2>(v);
    p[i] = v[0];
  }
}

}  // namespace ecthub::nn::lanes
