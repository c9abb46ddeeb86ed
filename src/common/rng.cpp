#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub {

std::uint64_t mix_seed(std::uint64_t base_seed, std::uint64_t stream) noexcept {
  // splitmix64 finalizer over a golden-ratio stride; (stream + 1) keeps
  // stream 0 from collapsing onto the raw base seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  // std::normal_distribution requires stddev > 0.  libstdc++ draws z for the
  // defaults and returns z * stddev + mean, the expression below, so every
  // stream keeps its bits.
  std::normal_distribution<double> d;
  return d(engine_) * stddev + mean;
}

bool Rng::bernoulli(double p) {
  // NaN fails `p > 0` and `p <= 0` both; a p in (0, 1) still takes two
  // compares to reach the draw.
  if (!(p > 0.0)) {
    if (p <= 0.0) return false;
    throw std::invalid_argument("Rng::bernoulli: p is NaN");
  }
  if (p >= 1.0) return true;
  std::bernoulli_distribution d(p);
  return d(engine_);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  std::poisson_distribution<std::uint64_t> d(mean);
  return d(engine_);
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate must be > 0");
  std::exponential_distribution<double> d(rate);
  return d(engine_);
}

Rng Rng::fork() {
  // Derive a child seed from the parent stream; advances the parent state so
  // successive forks are independent.
  return Rng(engine_());
}

void Rng::shuffle(std::vector<std::size_t>& idx) {
  std::shuffle(idx.begin(), idx.end(), engine_);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::categorical: empty weights");
  // Every weight is checked before the draw, so a bad one throws on every
  // call (not only when the walk reaches it) and leaves the stream untouched.
  // Written so that NaN fails.
  double total = 0.0;
  for (const double w : weights) {
    if (!(std::isfinite(w) && w >= 0.0)) {
      throw std::invalid_argument("Rng::categorical: weights must be finite and >= 0");
    }
    total += w;
  }
  if (!(std::isfinite(total) && total > 0.0)) {
    throw std::invalid_argument("Rng::categorical: weights must sum to a finite value > 0");
  }
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace ecthub
