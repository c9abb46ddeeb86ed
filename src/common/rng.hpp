// Deterministic random-number utilities.
//
// Every stochastic component in the system draws from an Rng seeded from the
// experiment configuration, so that all tables and figures are reproducible
// bit-for-bit across runs.
//
// The engine and every draw are owned code, so a stream depends on neither
// the C++ library a build links nor the CPU it runs on:
//   - the engine is xoshiro256** (Blackman & Vigna, 2018), 32 bytes of
//     state seeded with the first four splitmix64 outputs of a 64-bit seed;
//   - canonical draws are a word's top 53 bits over 2^53, in [0, 1);
//   - normal is a 256-layer ziggurat (Marsaglia & Tsang, 2000) whose layer
//     and value come from disjoint bits of one word (Doornik, 2005), with
//     Marsaglia's tail method beyond R = 3.654;
//   - poisson inverts the cdf below mean 10 and uses Hoermann's PTRS
//     (1993) from there; exponential inverts; uniform_int is Lemire's
//     method; shuffle is Fisher-Yates.
// Their transcendental functions come from common/elementary.  The only
// libm call left that rounds is sqrt (PTRS's set-up and the ziggurat's
// tables), which IEEE 754 rounds correctly; floor, ceil and nextafter are
// exact.  So a stream is the same on every host, whatever variants glibc
// dispatches to.
//
// The per-slot draws (uniform, normal, bernoulli) and the engine's draw are
// inline: the generators call them from their slot loops in other modules.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecthub {

/// Deterministic stream seed: a splitmix64 finalizer over (base, stream).
/// Distinct stream ids map to well-separated seeds even for adjacent bases —
/// the per-hub seeding primitive of the fleet engine and of every metro front
/// stream derived in core.  mix_seed(s, 0), mix_seed(s, 1), ... are the
/// splitmix64 outputs from state s.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t base_seed,
                                               std::uint64_t stream) noexcept {
  // splitmix64 finalizer over a golden-ratio stride; (stream + 1) keeps
  // stream 0 from collapsing onto the raw base seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A canonical draw from one 64-bit word: its top 53 bits over 2^53, in
/// [0, 1 - 2^-53].
[[nodiscard]] constexpr double canonical_from_bits(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1p-53;
}

/// Rng::uniform's map from a canonical c in [0, 1) to [lo, hi), lo <= hi
/// finite: c * (hi - lo) + lo, or the largest double below hi where that
/// rounds up to hi (it does at the top canonical value for many pairs).
/// lo == hi maps to lo.
[[nodiscard]] inline double uniform_from_canonical(double c, double lo, double hi) noexcept {
  const double v = c * (hi - lo) + lo;
  return v < hi || lo == hi ? v : std::nextafter(hi, lo);
}

/// Rng::categorical's map from u in [0, total) to an index: the first i
/// whose running left fold of weights[0..i] exceeds u.  With total that
/// same fold, it returns an index for every such u, and never one whose
/// weight is 0.
[[nodiscard]] std::size_t categorical_from_uniform(const std::vector<double>& weights,
                                                   double u) noexcept;

namespace detail {

/// The ziggurat's 256 layers (rng.cpp), built once before main from
/// common/elementary's exp and log (so no static initializer elsewhere may
/// draw a normal).  A draw's low 8 bits pick layer i and its top 53 bits a
/// signed integer j in [-2^52, 2^52): x = j * scale[i] is uniform across
/// the layer, and |j| < inner[i] puts x under the curve.
struct Ziggurat {
  std::array<double, 256> scale;        ///< layer half-width x_i / 2^52
  std::array<std::int64_t, 256> inner;  ///< ceil(x_{i+1} / x_i * 2^52)
  std::array<double, 257> density;      ///< exp(-x_i^2 / 2); x_256 = 0
};

extern const Ziggurat kZiggurat;

}  // namespace detail

/// Deterministic stream of draws over an owned xoshiro256** engine.
/// Copyable (copies carry the full engine state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) noexcept
      : s_{mix_seed(seed, 0), mix_seed(seed, 1), mix_seed(seed, 2), mix_seed(seed, 3)} {}

  /// Uniform double in [lo, hi) (lo when lo == hi).  Throws
  /// std::invalid_argument, without drawing, unless lo <= hi (so a NaN
  /// bound throws).
  double uniform(double lo = 0.0, double hi = 1.0) {
    if (!(lo <= hi)) reject("Rng::uniform: need lo <= hi");
    return uniform_from_canonical(canonical(), lo, hi);
  }

  /// Uniform integer in [lo, hi] (inclusive).  Throws std::invalid_argument,
  /// without drawing, when lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian with the given mean / standard deviation: a standard normal
  /// draw z, returned as z * stddev + mean.  Defined for any stddev (0 returns
  /// `mean`); callers' configs reject a negative one.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return standard_normal() * stddev + mean;
  }

  /// Bernoulli draw: false for p <= 0 and true for p >= 1, without drawing.
  /// Throws std::invalid_argument, without drawing, when p is NaN.
  bool bernoulli(double p) {
    // NaN fails `p > 0` and `p <= 0` both; a p in (0, 1) still takes two
    // compares to reach the draw.
    if (!(p > 0.0)) {
      if (p <= 0.0) return false;
      reject("Rng::bernoulli: p is NaN");
    }
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// Poisson draw with the given mean (mean <= 0 yields 0, without drawing).
  /// Throws std::invalid_argument, without drawing, unless the mean is a
  /// number below 2^64, the range of the result.
  std::uint64_t poisson(double mean);

  /// Exponential draw with the given rate.  Throws std::invalid_argument,
  /// without drawing, unless rate > 0 (so a NaN rate throws).
  double exponential(double rate);

  /// A fresh Rng whose seed is derived from this one; used to give each
  /// sub-component an independent, reproducible stream.
  Rng fork() { return Rng(engine()); }

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& idx);

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  /// Throws std::invalid_argument, without drawing, unless every weight is
  /// finite and >= 0 and their sum is finite and > 0.
  std::size_t categorical(const std::vector<double>& weights);

 private:
  [[noreturn]] static void reject(const char* what);

  /// xoshiro256**'s next word.
  std::uint64_t engine() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  double canonical() noexcept { return canonical_from_bits(engine()); }

  /// The ziggurat's fast path: one word, no transcendental, taken by about
  /// 99 % of draws; the rest continue in normal_outside.
  double standard_normal() noexcept {
    const std::uint64_t bits = engine();
    const std::size_t layer = bits & 0xff;
    const std::int64_t j = static_cast<std::int64_t>(bits) >> 11;
    const double x = static_cast<double>(j) * detail::kZiggurat.scale[layer];
    if ((j < 0 ? -j : j) < detail::kZiggurat.inner[layer]) return x;
    return normal_outside(layer, x);
  }

  /// A draw x of `layer` that fell outside its inner rectangle: the tail
  /// beyond R (layer 0) or the wedge test, redrawing until one is accepted.
  double normal_outside(std::size_t layer, double x) noexcept;

  /// Lemire's method on a 128-bit product: uniform in [0, n) for n >= 1.
  std::uint64_t below(std::uint64_t n);

  std::array<std::uint64_t, 4> s_;
};

}  // namespace ecthub
