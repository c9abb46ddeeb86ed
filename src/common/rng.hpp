// Deterministic random-number utilities.
//
// Every stochastic component in the system draws from an Rng seeded from the
// experiment configuration, so that all tables and figures are reproducible
// bit-for-bit across runs.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace ecthub {

/// Deterministic stream seed: a splitmix64 finalizer over (base, stream).
/// Distinct stream ids map to well-separated seeds even for adjacent bases —
/// the per-hub seeding primitive of the fleet engine and of every metro front
/// stream derived in core.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base_seed,
                                     std::uint64_t stream) noexcept;

/// Thin wrapper over std::mt19937_64 with the distributions used across the
/// codebase.  Copyable (copies carry the full engine state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian with the given mean / standard deviation: a standard normal
  /// draw z, returned as z * stddev + mean.  Defined for any stddev (0 returns
  /// `mean`); callers' configs reject a negative one.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw: false for p <= 0 and true for p >= 1, without drawing.
  /// Throws std::invalid_argument, without drawing, when p is NaN.
  bool bernoulli(double p);

  /// Poisson draw with the given mean (mean <= 0 yields 0).
  std::uint64_t poisson(double mean);

  /// Exponential draw with the given rate (rate > 0).
  double exponential(double rate);

  /// A fresh Rng whose seed is derived from this one; used to give each
  /// sub-component an independent, reproducible stream.
  Rng fork();

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& idx);

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  /// Throws std::invalid_argument, without drawing, unless every weight is
  /// finite and >= 0 and their sum is finite and > 0.
  std::size_t categorical(const std::vector<double>& weights);

 private:
  std::mt19937_64 engine_;
};

}  // namespace ecthub
