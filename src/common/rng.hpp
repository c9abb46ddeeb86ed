// Deterministic random-number utilities.
//
// Every stochastic component in the system draws from an Rng seeded from the
// experiment configuration, so that all tables and figures are reproducible
// bit-for-bit across runs.
//
// The engine and every draw are owned code that replays libstdc++ 12's
// std::mt19937_64 and its distributions operation for operation, so a stream
// no longer depends on which C++ library a build links: the same seeding,
// twist and tempering; generate_canonical<double, 64>; uniform_real's affine
// map; normal's polar method; bernoulli's compare; uniform_int's Lemire
// method; poisson's product and rejection methods; exponential's inversion;
// std::shuffle's paired swaps.  What still calls libm: normal's log and sqrt,
// exponential's log, and poisson's exp, log, lgamma, sqrt, floor, ceil and
// round.  sqrt is correctly rounded and the rounding functions are exact;
// glibc picks log and exp by CPU, so those bits can still follow the host.
//
// The per-slot draws (uniform, normal, bernoulli) and the engine's draw are
// inline: the generators call them from their slot loops in other modules.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ecthub {

/// Deterministic stream seed: a splitmix64 finalizer over (base, stream).
/// Distinct stream ids map to well-separated seeds even for adjacent bases —
/// the per-hub seeding primitive of the fleet engine and of every metro front
/// stream derived in core.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base_seed,
                                     std::uint64_t stream) noexcept;

/// The 64-bit Mersenne Twister, std::mt19937_64's algorithm and output
/// stream: seed(s) fills the 312-word state as libstdc++ does, each draw
/// tempers the next word, and every 312 draws the state is twisted.  The
/// twist selects its xor constant with a mask instead of a branch.
/// A UniformRandomBitGenerator; copies carry the whole state (2504 bytes,
/// as std::mt19937_64's).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (pos_ >= kWords) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kWords = 312;

  /// Regenerates all 312 words (libstdc++'s _M_gen_rand) and rewinds.
  void twist() noexcept;

  std::array<result_type, kWords> state_;
  std::size_t pos_;
};

/// libstdc++'s generate_canonical<double, 64> over one 64-bit draw `bits`:
/// bits / 2^64, with a result that rounds up to 1.0 (bits >= 2^64 - 2^10)
/// clamped to nextafter(1.0, 0.0).  No double lies strictly between that
/// value and 1.0, so the clamp is a min.
[[nodiscard]] constexpr double canonical_from_bits(std::uint64_t bits) noexcept {
  return std::min(static_cast<double>(bits) / 0x1p64, 0x1.fffffffffffffp-1);
}

/// Deterministic stream of draws over an owned Mt19937_64.  Copyable (copies
/// carry the full engine state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).  Throws std::invalid_argument, without
  /// drawing, unless lo <= hi (so a NaN bound throws).
  double uniform(double lo = 0.0, double hi = 1.0) {
    if (!(lo <= hi)) reject("Rng::uniform: need lo <= hi");
    return canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive).  Throws std::invalid_argument,
  /// without drawing, when lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian with the given mean / standard deviation: a standard normal
  /// draw z, returned as z * stddev + mean.  Defined for any stddev (0 returns
  /// `mean`); callers' configs reject a negative one.
  double normal(double mean = 0.0, double stddev = 1.0) {
    // As a fresh std::normal_distribution per call would: the spare is
    // discarded, and the standard draw passes through `z * 1.0 + 0.0` (the
    // default distribution's own scaling) before this one.
    const double z = polar().first;
    return (z * 1.0 + 0.0) * stddev + mean;
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
  Rng fork() { return Rng(engine_()); }

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& idx);

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  /// Throws std::invalid_argument, without drawing, unless every weight is
  /// finite and >= 0 and their sum is finite and > 0.
  std::size_t categorical(const std::vector<double>& weights);

 private:
  [[noreturn]] static void reject(const char* what);

  double canonical() { return canonical_from_bits(engine_()); }

  /// libstdc++'s polar method (Marsaglia): draws x, then y, until
  /// 0 < x^2 + y^2 <= 1, and returns {y * mult, x * mult}: the standard
  /// normal it returns and the spare it saves.
  std::pair<double, double> polar() {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    return {y * mult, x * mult};
  }

  /// Lemire's method on a 128-bit product: uniform in [0, n) for n >= 1.
  std::uint64_t below(std::uint64_t n);

  Mt19937_64 engine_;
};

}  // namespace ecthub
