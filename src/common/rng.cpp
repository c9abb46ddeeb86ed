#include "common/rng.hpp"

#include <limits>
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

Mt19937_64::Mt19937_64(result_type seed) noexcept : pos_(kWords) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() noexcept {
  // libstdc++'s three loops (bits/random.tcc, _M_gen_rand) with n = 312,
  // m = 156 and r = 31.  `(y & 1) ? a : 0` is written as a mask: the library
  // compiles it to a branch taken half the time.
  constexpr std::size_t kShift = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  constexpr result_type kA = 0xb5026f5aa96619e9ULL;
  const auto mixed = [](result_type hi, result_type lo) {
    const result_type y = (hi & kUpper) | (lo & kLower);
    return (y >> 1) ^ ((result_type{0} - (y & 1)) & kA);
  };
  for (std::size_t k = 0; k < kWords - kShift; ++k) {
    state_[k] = state_[k + kShift] ^ mixed(state_[k], state_[k + 1]);
  }
  for (std::size_t k = kWords - kShift; k < kWords - 1; ++k) {
    state_[k] = state_[k - (kWords - kShift)] ^ mixed(state_[k], state_[k + 1]);
  }
  state_[kWords - 1] = state_[kShift - 1] ^ mixed(state_[kWords - 1], state_[0]);
  pos_ = 0;
}

void Rng::reject(const char* what) { throw std::invalid_argument(what); }

std::uint64_t Rng::below(std::uint64_t n) {
  // libstdc++'s _S_nd (bits/uniform_int_dist.h).
  using u128 = unsigned __int128;
  u128 product = static_cast<u128>(engine_()) * n;
  auto low = static_cast<std::uint64_t>(product);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      product = static_cast<u128>(engine_()) * n;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (!(lo <= hi)) reject("Rng::uniform_int: need lo <= hi");
  // Offsets from lo in two's complement: [lo, hi] spans range + 1 values,
  // and the full int64 range takes one raw draw.
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t offset = range == Mt19937_64::max() ? engine_() : below(range + 1);
  return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (!(mean < 0x1p64)) reject("Rng::poisson: mean must be a number below 2^64");
  if (mean < 12) {
    // The product of uniforms against exp(-mean) (bits/random.tcc).
    const double threshold = std::exp(-mean);
    std::uint64_t x = 0;
    double prod = 1.0;
    do {
      prod *= canonical();
      x += 1;
    } while (prod > threshold);
    return x - 1;
  }

  // Devroye's rejection method, libstdc++'s param_type::_M_initialize and
  // operator() with their operand order and long double literals.
  const double m = std::floor(mean);
  const double lm_thr = std::log(mean);
  const double lfm = std::lgamma(m + 1);
  const double sm = std::sqrt(m);
  const double pi_4 = 0.7853981633974483096156608458198757L;
  const double dx = std::sqrt(2 * m * std::log(32 * m / pi_4));
  const double d = std::round(std::max<double>(6.0, std::min(m, dx)));
  const double cx = 2 * m + d;
  const double scx = std::sqrt(cx / 2);
  const double one_cx = 1 / cx;
  const double c2b = std::sqrt(pi_4 * cx) * std::exp(one_cx);
  const double cb = 2 * cx * std::exp(-d * one_cx * (1 + d / 2)) / d;

  const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
  const double thr = static_cast<double>(std::numeric_limits<std::uint64_t>::max()) + naf;
  const double spi_2 = 1.2533141373155002512078826424055226L;
  const double c1 = sm * spi_2;
  const double c2 = c2b + c1;
  const double c3 = c2 + 1;
  const double c4 = c3 + 1;
  const double c178 = 0.0128205128205128205128205128205128L;
  const double e178 = 1.0129030479320018583185514777512983L;
  const double c5 = c4 + e178;
  const double c = cb + c5;
  const double two_cx = 2 * (2 * m + d);

  // The library's normal_distribution member lives for the whole call, so
  // a second standard draw takes the first one's spare.
  double spare = 0.0;
  bool has_spare = false;
  const auto standard_normal = [&] {
    double z = spare;
    if (has_spare) {
      has_spare = false;
    } else {
      const auto [y_mult, x_mult] = polar();
      z = y_mult;
      spare = x_mult;
      has_spare = true;
    }
    return z * 1.0 + 0.0;
  };

  double x = 0.0;
  bool rejected = true;
  do {
    const double u = c * canonical();
    const double e = -std::log(1.0 - canonical());
    double w = 0.0;
    if (u <= c1) {
      const double n = standard_normal();
      const double y = -std::abs(n) * sm - 1;
      x = std::floor(y);
      w = -n * n / 2;
      if (x < -m) continue;
    } else if (u <= c2) {
      const double n = standard_normal();
      const double y = 1 + std::abs(n) * scx;
      x = std::ceil(y);
      w = y * (2 - y) * one_cx;
      if (x > d) continue;
    } else if (u <= c3) {
      x = -1;
    } else if (u <= c4) {
      x = 0;
    } else if (u <= c5) {
      x = 1;
      w = c178;
    } else {
      const double v = -std::log(1.0 - canonical());
      const double y = d + v * two_cx / d;
      x = std::ceil(y);
      w = -d * one_cx * (1 + y / 2);
    }
    rejected = w - e - x * lm_thr > lfm - std::lgamma(x + m + 1);
    rejected |= x + m >= thr;
  } while (rejected);
  return static_cast<std::uint64_t>(x + m + naf);
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0)) reject("Rng::exponential: rate must be > 0");
  return -std::log(1.0 - canonical()) / rate;
}

void Rng::shuffle(std::vector<std::size_t>& idx) {
  // std::shuffle (bits/stl_algo.h) over uniform_int_distribution<size_t>.
  const std::uint64_t n = idx.size();
  if (n == 0) return;
  if (Mt19937_64::max() / n >= n) {
    // Two swap positions per draw, from one index in [0, b0 * b1); an even
    // length swaps its first position alone.
    std::size_t i = 1;
    if (n % 2 == 0) {
      std::swap(idx[i], idx[below(2)]);
      ++i;
    }
    while (i != n) {
      const std::uint64_t b0 = i + 1;
      const std::uint64_t b1 = b0 + 1;
      const std::uint64_t pos = below(b0 * b1);
      std::swap(idx[i], idx[pos / b1]);
      ++i;
      std::swap(idx[i], idx[pos % b1]);
      ++i;
    }
    return;
  }
  for (std::size_t i = 1; i != n; ++i) std::swap(idx[i], idx[below(i + 1)]);
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
