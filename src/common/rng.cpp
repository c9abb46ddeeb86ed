#include "common/rng.hpp"

#include "common/elementary.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ecthub {

namespace {

// The 256-layer ziggurat of Marsaglia & Tsang (2000): the base layer's
// rectangle reaches R, and every layer has area V, the base's including the
// tail beyond R.  R closes the recurrence (the top layer's area is V too);
// V = R exp(-R^2 / 2) + sqrt(pi / 2) erfc(R / sqrt(2)).
constexpr double kZigR = 0x1.d3bb48209ad33p+1;  // 3.6541528853610088
constexpr double kZigV = 0x1.43016a5a43732p-8;  // 0.004928673233974655

detail::Ziggurat build_ziggurat() {
  // x_0 = V / f(R) is the base layer's width as a rectangle; x_1 = R; each
  // x_{i+1} puts a box of area V on top of the last: f(x_{i+1}) = f(x_i) +
  // V / x_i (Doornik's zigNorInit).  f(x) = exp(-x^2 / 2).
  std::array<double, 257> x{};
  detail::Ziggurat z{};
  double f = elementary::exp(-0.5 * kZigR * kZigR);
  x[0] = kZigV / f;
  x[1] = kZigR;
  z.density[1] = f;
  for (std::size_t i = 2; i < 256; ++i) {
    x[i] = std::sqrt(-2.0 * elementary::log(kZigV / x[i - 1] + f));
    f = elementary::exp(-0.5 * x[i] * x[i]);
    z.density[i] = f;
  }
  x[256] = 0.0;
  z.density[0] = 0.0;  // unused: layer 0 continues in the tail
  z.density[256] = 1.0;
  for (std::size_t i = 0; i < 256; ++i) {
    z.scale[i] = x[i] * 0x1p-52;
    z.inner[i] = static_cast<std::int64_t>(std::ceil(x[i + 1] / x[i] * 0x1p52));
  }
  return z;
}

/// log k! for k = 0..15 (correctly rounded); PTRS's Stirling series takes
/// over from 16.
constexpr double kLogFactorial[16] = {
    0.0,
    0.0,
    0x1.62e42fefa39efp-1,
    0x1.cab0bfa2a2002p+0,
    0x1.96ca77c922cf9p+1,
    0x1.326643c4479c9p+2,
    0x1.a51273acf01cap+2,
    0x1.10ce1f32dcc30p+3,
    0x1.5358e82fcb70dp+3,
    0x1.99a8921a7f7cfp+3,
    0x1.e357590954d15p+3,
    0x1.180973f3a8d74p+4,
    0x1.3fcba16d50143p+4,
    0x1.68d5a9c3b32cep+4,
    0x1.930f3df162a42p+4,
    0x1.be636a63fd346p+4,
};
constexpr double kHalfLog2Pi = 0x1.d67f1c864beb5p-1;  // log(2 pi) / 2

/// log(1 + d) for d > -1, accurate where d is tiny (Goldberg's trick: the
/// rounding of 1 + d cancels in log(w) * d / (w - 1)).
double log1p_of(double d) {
  const double w = 1.0 + d;
  return w == 1.0 ? d : elementary::log(w) * d / (w - 1.0);
}

/// -mean + k log(mean) - log k!, the log of the Poisson pmf at k up to
/// its mean-only factor.  From k = 16, Stirling's series with the
/// log(k / mean) term written as log1p, so the large terms cancel exactly
/// and the error stays near 2^-53 * |k - mean| at any mean.
double log_pmf_ratio(double k, double mean, double log_mean) {
  if (k < 16.0) return -mean + k * log_mean - kLogFactorial[static_cast<std::size_t>(k)];
  const double inv = 1.0 / k;
  const double inv2 = inv * inv;
  const double series =
      inv * (1.0 / 12 - inv2 * (1.0 / 360 - inv2 * (1.0 / 1260 - inv2 * (1.0 / 1680))));
  // log k! = k log k - k + log(2 pi k) / 2 + series
  return (k - mean) - k * log1p_of((k - mean) / mean) -
         (kHalfLog2Pi + 0.5 * elementary::log(k)) - series;
}

}  // namespace

namespace detail {

const Ziggurat kZiggurat = build_ziggurat();

}  // namespace detail

std::size_t categorical_from_uniform(const std::vector<double>& weights, double u) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // not reached for u < total
}

void Rng::reject(const char* what) { throw std::invalid_argument(what); }

double Rng::normal_outside(std::size_t layer, double x) noexcept {
  const detail::Ziggurat& z = detail::kZiggurat;
  for (;;) {
    if (layer == 0) {
      // Marsaglia's tail method: R + t with t ~ Exp(R), accepted with
      // probability exp(-t^2 / 2), signed as the draw was.
      double t = 0.0;
      double e = 0.0;
      do {
        t = -elementary::log(1.0 - canonical()) / kZigR;
        e = -elementary::log(1.0 - canonical());
      } while (e + e < t * t);
      return x < 0.0 ? -(kZigR + t) : kZigR + t;
    }
    // The wedge: a height uniform across the layer, under the curve at x.
    const double height =
        z.density[layer] + canonical() * (z.density[layer + 1] - z.density[layer]);
    if (height < elementary::exp(-0.5 * x * x)) return x;

    const std::uint64_t bits = engine();
    layer = bits & 0xff;
    const std::int64_t j = static_cast<std::int64_t>(bits) >> 11;
    x = static_cast<double>(j) * z.scale[layer];
    if ((j < 0 ? -j : j) < z.inner[layer]) return x;
  }
}

std::uint64_t Rng::below(std::uint64_t n) {
  using u128 = unsigned __int128;
  u128 product = static_cast<u128>(engine()) * n;
  auto low = static_cast<std::uint64_t>(product);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      product = static_cast<u128>(engine()) * n;
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
  const std::uint64_t offset = range == ~std::uint64_t{0} ? engine() : below(range + 1);
  return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (!(mean < 0x1p64)) reject("Rng::poisson: mean must be a number below 2^64");
  if (mean < 10.0) {
    // Inversion: the first k whose cdf exceeds one uniform, walking the pmf
    // up from exp(-mean).  A u above the cdf's rounded total (probability
    // about 2^-52) stops where the pmf underflows to 0.
    const double u = canonical();
    double p = elementary::exp(-mean);
    double cdf = p;
    std::uint64_t k = 0;
    while (u >= cdf && p > 0.0) {
      ++k;
      p *= mean / static_cast<double>(k);
      cdf += p;
    }
    return k;
  }

  // Hoermann's PTRS: a transformed-rejection hat around the mode, its
  // constants fitted in the paper, with a squeeze that accepts most draws
  // before any logarithm.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double log_inv_alpha = elementary::log(1.1239 + 1.1328 / (b - 3.4));
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  const double log_mean = elementary::log(mean);
  for (;;) {
    const double u = canonical() - 0.5;
    const double v = canonical();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (!(k >= 0.0 && k < 0x1p64)) continue;  // u = -0.5 gives k = -inf
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (us < 0.013 && v > us) continue;
    if (elementary::log(v) + log_inv_alpha - elementary::log(a / (us * us) + b) <=
        log_pmf_ratio(k, mean, log_mean)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0)) reject("Rng::exponential: rate must be > 0");
  return -elementary::log(1.0 - canonical()) / rate;
}

void Rng::shuffle(std::vector<std::size_t>& idx) {
  for (std::size_t i = 1; i < idx.size(); ++i) std::swap(idx[i], idx[below(i + 1)]);
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
  return categorical_from_uniform(weights, uniform(0.0, total));
}

}  // namespace ecthub
