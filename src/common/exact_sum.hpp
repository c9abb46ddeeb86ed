// ExactSum: an exactly associative accumulator for IEEE-754 doubles.
//
// Plain `double +=` is not associative — ((a+b)+c)+d and (a+b)+(c+d) can
// differ in the last ulp — so a sharded sweep that folds per-shard partial
// sums could never be bit-identical to the single-process left fold.
// ExactSum removes the problem at the root: it accumulates addends into a
// 2176-bit two's-complement fixed-point register (34 × 64-bit limbs, units
// of 2^-1074, the smallest subnormal), in which every finite double is
// representable exactly.  Integer addition is associative and commutative,
// so any grouping or ordering of add()/merge() calls yields the same limb
// state bit for bit; value() rounds that exact sum to the nearest double
// (ties to even) once, at read time.
//
// Capacity: the largest finite double occupies bit 2097 (2^1023 ≤ x <
// 2^1024 above the 2^-1074 origin), leaving 77 headroom bits below the
// sign bit — ~1.5e23 worst-case addends before the register can wrap, far
// beyond any fleet sweep.
//
// Sharded sweeps rely on this: shard files carry per-hub results only, each
// loaded shard re-aggregates its report, and the reports merged from any
// shard set == the single-process report (sim/shard_io).
#pragma once

#include <array>
#include <cstdint>

namespace ecthub {

class ExactSum {
 public:
  constexpr ExactSum() = default;

  /// Folds one addend into the register, exactly.  Throws
  /// std::invalid_argument on NaN or infinity — a non-finite addend has no
  /// fixed-point representation and would silently poison the sum.
  void add(double v);

  /// Folds another register in (limb-wise two's-complement addition) —
  /// exactly equivalent to having applied all of `other`'s add() calls
  /// here, in any order.
  void add(const ExactSum& other) noexcept;

  ExactSum& operator+=(double v) {
    add(v);
    return *this;
  }
  ExactSum& operator+=(const ExactSum& other) noexcept {
    add(other);
    return *this;
  }

  /// The exact sum rounded to the nearest double, ties to even — the same
  /// rounding the hardware applies to a single arithmetic result.  ±0 sums
  /// report +0.0; magnitudes beyond the double range report ±infinity.
  [[nodiscard]] double value() const noexcept;

  friend bool operator==(const ExactSum&, const ExactSum&) = default;

 private:
  /// 34 × 64 = 2176 bits: full double range (2098 bits) + 77-bit headroom
  /// + sign.
  static constexpr std::size_t kLimbs = 34;
  using Limbs = std::array<std::uint64_t, kLimbs>;

  void add_magnitude(std::uint64_t mantissa, unsigned shift) noexcept;
  void sub_magnitude(std::uint64_t mantissa, unsigned shift) noexcept;

  Limbs limbs_{};  // two's complement, limbs_[0] holds bit 0 (2^-1074)
};

}  // namespace ecthub
