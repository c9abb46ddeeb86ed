// Unit tests for the common substrate: time grid, RNG and its distributions,
// the owned sin/cos/atan2, statistics, tables, the barrier crew.
#include "common/binio.hpp"
#include "common/cli.hpp"
#include "common/crew.hpp"
#include "common/csv.hpp"
#include "common/elementary.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time_grid.hpp"

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <numbers>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>
#include <fstream>

namespace ecthub {
namespace {

// ---------------------------------------------------------------- TimeGrid

TEST(TimeGrid, SizeAndSlotHours) {
  const TimeGrid grid(30, 24);
  EXPECT_EQ(grid.size(), 720u);
  EXPECT_EQ(grid.slots_per_day(), 24u);
  EXPECT_EQ(grid.slot_hours(), 1.0);
}

// A slot is one hour: every other resolution is refused.
TEST(TimeGrid, RejectsZeroDays) {
  EXPECT_THROW(TimeGrid(0, 24), std::invalid_argument);
  for (const std::size_t spd : {0u, 7u, 48u, 96u}) {
    EXPECT_THROW(TimeGrid(1, spd), std::invalid_argument) << spd;
  }
}

TEST(TimeGrid, DayAndSlotDecomposition) {
  const TimeGrid grid(3, 24);
  EXPECT_EQ(grid.day_of(0), 0u);
  EXPECT_EQ(grid.day_of(23), 0u);
  EXPECT_EQ(grid.day_of(24), 1u);
  EXPECT_EQ(grid.slot_of_day(24), 0u);
  EXPECT_EQ(grid.slot_of_day(47), 23u);
}

TEST(TimeGrid, HourOfDay) {
  const TimeGrid grid(2, 24);
  EXPECT_EQ(grid.hour_of_day(0), 0.0);
  EXPECT_EQ(grid.hour_of_day(1), 1.0);
  EXPECT_EQ(grid.hour_of_day(23), 23.0);
  EXPECT_EQ(grid.hour_of_day(25), 1.0);
}

TEST(TimeGrid, DayOfWeekWrapsAtSeven) {
  const TimeGrid grid(15, 24);
  EXPECT_EQ(grid.day_of_week(0), 0u);
  EXPECT_EQ(grid.day_of_week(7 * 24), 0u);
  EXPECT_EQ(grid.day_of_week(8 * 24), 1u);
}

TEST(TimeGrid, WeekendDetection) {
  const TimeGrid grid(7, 24);
  EXPECT_FALSE(grid.is_weekend(0));
  EXPECT_TRUE(grid.is_weekend(5 * 24));
  EXPECT_TRUE(grid.is_weekend(6 * 24));
}

TEST(TimeGrid, OutOfRangeSlotThrows) {
  const TimeGrid grid(1, 24);
  EXPECT_THROW((void)grid.day_of(24), std::out_of_range);
  EXPECT_THROW((void)grid.hour_of_day(24), std::out_of_range);
}

TEST(TimeGrid, FillBySlotOfDayWritesEverySlotsHour) {
  const TimeGrid grid(9, 24);
  std::vector<double> out(grid.size(), -1.0);
  std::size_t calls = 0;
  fill_by_slot_of_day(grid, out, [&calls](double hour) {
    ++calls;
    return 3.0 * hour - 1.0;
  });
  EXPECT_EQ(calls, 24u);
  for (std::size_t t = 0; t < grid.size(); ++t) {
    EXPECT_EQ(out[t], 3.0 * grid.hour_of_day(t) - 1.0) << t;
  }
  std::vector<double> short_out(grid.size() - 1);
  EXPECT_THROW(fill_by_slot_of_day(grid, short_out, [](double h) { return h; }),
               std::invalid_argument);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.uniform() != b.uniform());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats::mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stats::stddev(xs), 2.0, 0.1);
}

// Rng::normal(mean, stddev) is the standard draw scaled, z * stddev + mean,
// pinned here against recorded draws.  A zero stddev returns the mean and
// consumes the draws a standard normal does.
TEST(Rng, NormalMatchesTheLibraryDrawAndTakesZeroSigma) {
  Rng rng(77);
  Rng standard(77);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 20000; ++i) {
    const double mean = 0.01 * (i % 201) - 1.0;
    const double stddev = 0.001 + 0.05 * (i % 97);
    const double x = rng.normal(mean, stddev);
    ASSERT_EQ(x, standard.normal() * stddev + mean) << i;
    digest = (digest ^ std::bit_cast<std::uint64_t>(x)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(digest, 0xee9b33ac963e3039ULL);
  Rng zero(5), ref(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero.normal(2.5, 0.0), 2.5);
    (void)ref.normal();
  }
  EXPECT_EQ(zero.uniform(), ref.uniform());
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BernoulliRejectsNanWithoutDrawing) {
  // A NaN p used to pass both guards and reach std::bernoulli_distribution,
  // whose precondition check aborts under _GLIBCXX_ASSERTIONS.
  Rng rng(3);
  const Rng untouched = rng;
  for (const double nan : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)rng.bernoulli(nan), std::invalid_argument);
  }
  Rng expected = untouched;
  EXPECT_EQ(rng.uniform(), expected.uniform());
}

TEST(Rng, PoissonMean) {
  Rng rng(5);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(acc / n, 3.0, 0.1);
}

TEST(Rng, PoissonZeroMeanYieldsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, ExponentialRejectsBadRate) {
  Rng rng(5);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.fork();
  // The fork advanced the parent, so both streams differ from a fresh Rng(42).
  Rng fresh(42);
  EXPECT_NE(child.uniform(), fresh.uniform());
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {0.0, 10.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.categorical(w), 1u);
}

TEST(Rng, CategoricalRejectsBadInput) {
  Rng rng(13);
  const Rng untouched = rng;
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  const double max = std::numeric_limits<double>::max();
  EXPECT_THROW(rng.categorical({max, max}), std::invalid_argument);  // sum overflows
  // A bad weight anywhere throws on every call, not only when the walk
  // happens to reach it, and no call draws from the stream.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -0.1}) {
    for (std::size_t at = 0; at < 3; ++at) {
      std::vector<double> w = {0.9, 0.2, 0.3};
      w[at] = bad;
      for (int call = 0; call < 100; ++call) {
        EXPECT_THROW(rng.categorical(w), std::invalid_argument) << bad << " at " << at;
      }
    }
  }
  Rng expected = untouched;
  EXPECT_EQ(rng.uniform(), expected.uniform());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<std::size_t> idx = {0, 1, 2, 3, 4, 5, 6, 7};
  auto copy = idx;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, idx);
}

TEST(Rng, BadParametersThrowWithoutDrawing) {
  // Each used to reach a <random> precondition check, which aborts under
  // _GLIBCXX_ASSERTIONS; a release build returned junk instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::int64_t i64_min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t i64_max = std::numeric_limits<std::int64_t>::max();
  Rng rng(3);
  const Rng untouched = rng;
  for (const auto& [lo, hi] : {std::pair{1.0, 0.0}, {nan, 1.0}, {0.0, nan}, {nan, nan}}) {
    EXPECT_THROW((void)rng.uniform(lo, hi), std::invalid_argument) << lo << ", " << hi;
  }
  for (const auto& [lo, hi] : {std::pair{std::int64_t{1}, std::int64_t{0}}, {i64_max, i64_min}}) {
    EXPECT_THROW((void)rng.uniform_int(lo, hi), std::invalid_argument) << lo << ", " << hi;
  }
  for (const double mean : {nan, -nan, inf, 0x1p64}) {
    EXPECT_THROW((void)rng.poisson(mean), std::invalid_argument) << mean;
  }
  for (const double rate : {nan, -nan, 0.0, -1.0, -inf}) {
    EXPECT_THROW((void)rng.exponential(rate), std::invalid_argument) << rate;
  }
  Rng expected = untouched;
  EXPECT_EQ(rng.uniform(), expected.uniform());
}

TEST(Rng, EngineIsXoshiro256StarStarSeededBySplitmix64) {
  // The reference algorithms (Vigna's xoshiro256** and splitmix64, public
  // domain), written out here.  A canonical draw is the word's top 53 bits,
  // so uniform() * 2^53 recovers them exactly.
  static_assert(sizeof(Rng) == 32);
  const auto rotl = [](std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  struct Reference {
    std::uint64_t s[4];
    explicit Reference(std::uint64_t seed) {
      for (std::uint64_t& w : s) {
        std::uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        w = z ^ (z >> 31);
      }
    }
  };
  const auto next = [&rotl](Reference& r) {
    const std::uint64_t result = rotl(r.s[1] * 5, 7) * 9;
    const std::uint64_t t = r.s[1] << 17;
    r.s[2] ^= r.s[0];
    r.s[3] ^= r.s[1];
    r.s[1] ^= r.s[2];
    r.s[0] ^= r.s[3];
    r.s[2] ^= t;
    r.s[3] = rotl(r.s[3], 45);
    return result;
  };
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
                                   ~std::uint64_t{0}, mix_seed(7, 3)}) {
    Rng rng(seed);
    Reference ref(seed);
    for (int i = 0; i < 100'000; ++i) {
      ASSERT_EQ(static_cast<std::uint64_t>(rng.uniform() * 0x1p53), next(ref) >> 11)
          << "seed " << seed << " draw " << i;
    }
    // fork() seeds a child from the parent's next word.
    Rng child = rng.fork();
    Reference ref_child(next(ref));
    EXPECT_EQ(static_cast<std::uint64_t>(child.uniform() * 0x1p53), next(ref_child) >> 11);
    EXPECT_EQ(static_cast<std::uint64_t>(rng.uniform() * 0x1p53), next(ref) >> 11);
  }
}

TEST(Rng, UniformMapsTheCanonicalEdges) {
  constexpr double kTop = 0x1.fffffffffffffp-1;  // the largest canonical draw
  EXPECT_EQ(canonical_from_bits(0), 0.0);
  EXPECT_EQ(canonical_from_bits(~std::uint64_t{0}), kTop);
  // c * (hi - lo) + lo rounds up to hi at the top for this pair.
  const double lo = 7.850717171822652;
  const double hi = 10.714929727778994;
  ASSERT_EQ(kTop * (hi - lo) + lo, hi);
  EXPECT_EQ(uniform_from_canonical(kTop, lo, hi), std::nextafter(hi, lo));
  EXPECT_EQ(uniform_from_canonical(0.0, lo, hi), lo);
  EXPECT_EQ(uniform_from_canonical(kTop, 3.0, 3.0), 3.0);
  EXPECT_EQ(uniform_from_canonical(0.0, -0.0, 0.0), -0.0);
  Rng pairs(91);
  for (int i = 0; i < 100'000; ++i) {
    const double a = pairs.uniform(-1e3, 1e3);
    const double b = a + pairs.uniform(0.0, 1e3);
    EXPECT_EQ(uniform_from_canonical(0.0, a, b), a);
    const double top = uniform_from_canonical(kTop, a, b);
    EXPECT_TRUE(top < b || a == b) << a << ", " << b;
    EXPECT_GE(top, a);
  }
}

TEST(Rng, CategoricalMapsTheUniformEdges) {
  // u = 0 never picks a leading zero weight.
  EXPECT_EQ(categorical_from_uniform({0.0, 0.0, 1.0}, 0.0), 2u);
  EXPECT_EQ(categorical_from_uniform({0.5, 0.5}, 0.0), 0u);
  // The largest u below the total never picks a trailing zero weight, even
  // where subtracting the weights one by one left a positive residual.
  const std::vector<double> w = {0.8114926470322322, 0.4958852705949647, 0.8390728336687837,
                                 0.19967440938563086, 0.0};
  double total = 0.0;
  for (const double x : w) total += x;
  EXPECT_EQ(categorical_from_uniform(w, std::nextafter(total, 0.0)), 3u);
  Rng sets(92);
  for (int i = 0; i < 100'000; ++i) {
    std::vector<double> ws(1 + static_cast<std::size_t>(sets.uniform_int(0, 6)));
    for (double& x : ws) x = sets.bernoulli(0.3) ? 0.0 : sets.uniform(0.0, 1.0);
    ws.push_back(0.0);
    double sum = 0.0;
    for (const double x : ws) sum += x;
    if (sum == 0.0) continue;
    for (const double u : {0.0, std::nextafter(sum, 0.0)}) {
      const std::size_t k = categorical_from_uniform(ws, u);
      ASSERT_LT(k, ws.size());
      EXPECT_GT(ws[k], 0.0) << "u " << u << " set " << i;
    }
  }
}

// ------------------------------------------------- Rng distributions
//
// Every draw against its distribution at >= 10^6 draws per parameter set.
// Each bound is a false-alarm bound from theory, not fitted to the output,
// and fails a correct sampler with probability about 10^-6 or less:
// sample means and variances within 5 standard errors (Var(s^2) is
// (mu4 - sigma^4) / n), Kolmogorov-Smirnov distances below the DKW bound
// sqrt(ln(2 / alpha) / (2 n)) at alpha = 10^-6, and chi-square statistics
// below the Wilson-Hilferty 1 - 10^-6 quantile (bins merged until each
// expects >= 5).

constexpr std::size_t kDistDraws = 1'000'000;
constexpr double kSigmas = 5.0;

void expect_moments(const std::vector<double>& xs, double mean, double var, double mu4) {
  const auto n = static_cast<double>(xs.size());
  const double m = stats::mean(xs);
  double s2 = 0.0;
  for (const double x : xs) s2 += (x - m) * (x - m);
  s2 /= n - 1.0;
  EXPECT_LE(std::abs(m - mean), kSigmas * std::sqrt(var / n)) << "mean " << m;
  EXPECT_LE(std::abs(s2 - var), kSigmas * std::sqrt((mu4 - var * var) / n)) << "variance " << s2;
}

double dkw_bound(std::size_t n) {
  return std::sqrt(std::log(2.0 / 1e-6) / (2.0 * static_cast<double>(n)));
}

template <class Cdf>
double ks_distance(std::vector<double> xs, Cdf cdf) {
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double f = cdf(xs[i]);
    d = std::max({d, f - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - f});
  }
  return d;
}

/// Chi-square of observed counts against expected ones, adjacent bins
/// merged left to right until each expects >= 5 (the remainder joins the
/// last bin); the statistic must stay below the 1 - 10^-6 quantile.
void expect_chi_square(const std::vector<double>& observed, const std::vector<double>& expected,
                       const std::string& what) {
  std::vector<double> obs;
  std::vector<double> exp;
  double o = 0.0;
  double e = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    o += observed[i];
    e += expected[i];
    if (e >= 5.0) {
      obs.push_back(o);
      exp.push_back(e);
      o = e = 0.0;
    }
  }
  ASSERT_FALSE(exp.empty()) << what;
  obs.back() += o;
  exp.back() += e;
  ASSERT_GE(exp.size(), 2u) << what;
  double chi2 = 0.0;
  for (std::size_t i = 0; i < exp.size(); ++i) {
    chi2 += (obs[i] - exp[i]) * (obs[i] - exp[i]) / exp[i];
  }
  const auto k = static_cast<double>(exp.size() - 1);
  const double z = 4.7534;  // the standard normal's 1 - 10^-6 quantile
  const double c = 2.0 / (9.0 * k);
  const double bound = k * std::pow(1.0 - c + z * std::sqrt(c), 3.0);
  EXPECT_LE(chi2, bound) << what << " (" << exp.size() << " bins)";
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(RngDistribution, UniformMomentsAndKs) {
  Rng rng(301);
  std::vector<double> xs(kDistDraws);
  for (double& x : xs) x = rng.uniform(2.0, 5.0);
  for (const double x : xs) ASSERT_TRUE(x >= 2.0 && x < 5.0) << x;
  expect_moments(xs, 3.5, 0.75, 81.0 / 80.0);
  EXPECT_LE(ks_distance(xs, [](double x) { return (x - 2.0) / 3.0; }), dkw_bound(xs.size()));
}

TEST(RngDistribution, NormalMomentsAndKs) {
  Rng rng(302);
  std::vector<double> xs(2 * kDistDraws);
  for (double& x : xs) x = rng.normal(1.5, 2.0);
  expect_moments(xs, 1.5, 4.0, 3.0 * 16.0);
  EXPECT_LE(ks_distance(xs, [](double x) { return normal_cdf((x - 1.5) / 2.0); }),
            dkw_bound(xs.size()));
}

TEST(RngDistribution, NormalHistogramChiSquare) {
  // 10^7 standard draws in bins of width 0.05 over [-4.5, 4.5] plus the two
  // tails: fine enough to see the ziggurat's layer edges, where a wrong
  // wedge test would put its excess mass.
  constexpr std::size_t kN = 10'000'000;
  constexpr double kWidth = 0.05;
  constexpr std::size_t kBins = 180;  // 9 / kWidth
  Rng rng(312);
  std::vector<double> counts(kBins + 2, 0.0);
  for (std::size_t i = 0; i < kN; ++i) {
    const double z = rng.normal();
    const double pos = (z + 4.5) / kWidth;
    const std::size_t bin = pos < 0.0 ? 0 : std::min(kBins + 1, 1 + static_cast<std::size_t>(pos));
    counts[bin] += 1.0;
  }
  std::vector<double> expected(kBins + 2);
  double last_cdf = 0.0;
  for (std::size_t b = 0; b <= kBins; ++b) {
    const double cdf = normal_cdf(-4.5 + kWidth * static_cast<double>(b));
    expected[b] = (cdf - last_cdf) * static_cast<double>(kN);
    last_cdf = cdf;
  }
  expected[kBins + 1] = (1.0 - last_cdf) * static_cast<double>(kN);
  expect_chi_square(counts, expected, "normal histogram");
}

TEST(RngDistribution, NormalTailBeyondTheZigguratBase) {
  // Draws beyond R = 3.654 all come from the tail method: each side's
  // share must be Phi(-R), and given |z| > R the excess |z| - R must have
  // the truncated normal's mean lambda - R, lambda = phi(R) / Phi(-R), and
  // its variance 1 + R lambda - lambda^2, and follow its law (KS).
  constexpr double kR = 3.6541528853610088;
  constexpr std::size_t kN = 10'000'000;
  Rng rng(303);
  std::vector<double> tail;
  std::size_t above = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double z = rng.normal();
    if (std::abs(z) > kR) tail.push_back(std::abs(z));
    above += z > kR ? 1 : 0;
  }
  const double q_r = 0.5 * std::erfc(kR / std::sqrt(2.0));  // Phi(-R)
  const double side = q_r * static_cast<double>(kN);
  const double side_sd = std::sqrt(side * (1.0 - q_r));
  EXPECT_LE(std::abs(static_cast<double>(above) - side), kSigmas * side_sd) << above;
  EXPECT_LE(std::abs(static_cast<double>(tail.size() - above) - side), kSigmas * side_sd)
      << tail.size() - above;
  const double lambda = std::exp(-0.5 * kR * kR) / std::sqrt(2.0 * std::numbers::pi) / q_r;
  const double excess_var = 1.0 + kR * lambda - lambda * lambda;
  double excess = 0.0;
  for (const double x : tail) excess += x - kR;
  excess /= static_cast<double>(tail.size());
  EXPECT_LE(std::abs(excess - (lambda - kR)),
            kSigmas * std::sqrt(excess_var / static_cast<double>(tail.size())))
      << "mean excess " << excess;
  const auto tail_cdf = [q_r](double x) {
    return 1.0 - 0.5 * std::erfc(x / std::sqrt(2.0)) / q_r;
  };
  EXPECT_LE(ks_distance(tail, tail_cdf), dkw_bound(tail.size()));
}

TEST(RngDistribution, ExponentialMomentsAndKs) {
  Rng rng(304);
  std::vector<double> xs(kDistDraws);
  for (double& x : xs) x = rng.exponential(0.5);
  for (const double x : xs) ASSERT_GE(x, 0.0);
  expect_moments(xs, 2.0, 4.0, 9.0 * 16.0);
  EXPECT_LE(ks_distance(xs, [](double x) { return 1.0 - std::exp(-0.5 * x); }),
            dkw_bound(xs.size()));
}

TEST(RngDistribution, BernoulliChiSquare) {
  Rng rng(305);
  for (const double p : {1e-3, 0.3, 0.5, 0.97}) {
    std::vector<double> counts(2, 0.0);
    for (std::size_t i = 0; i < kDistDraws; ++i) counts[rng.bernoulli(p) ? 1 : 0] += 1.0;
    const auto n = static_cast<double>(kDistDraws);
    expect_chi_square(counts, {n * (1.0 - p), n * p}, "bernoulli " + std::to_string(p));
  }
}

TEST(RngDistribution, UniformIntChiSquare) {
  // Small ranges value by value; wide ones in equal bins of their top bits,
  // among them ranges that are not powers of two, where Lemire's method
  // rejects (a quarter of the time for [0, 3 * 2^61 - 1]).
  struct Case {
    std::int64_t lo;
    std::int64_t hi;
    std::size_t bins;
    int shift;  ///< bin = (v - lo) >> shift
  };
  const Case cases[] = {
      {0, 1, 2, 0},
      {0, 9, 10, 0},
      {-5, 5, 11, 0},
      {0, 3 * (std::int64_t{1} << 30) - 1, 12, 28},
      {0, 3 * (std::int64_t{1} << 61) - 1, 12, 59},
      {std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max(), 16, 60},
  };
  Rng rng(306);
  for (const Case& c : cases) {
    std::vector<double> counts(c.bins, 0.0);
    for (std::size_t i = 0; i < kDistDraws; ++i) {
      const std::int64_t v = rng.uniform_int(c.lo, c.hi);
      ASSERT_TRUE(v >= c.lo && v <= c.hi);
      const std::uint64_t offset = static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(c.lo);
      counts[offset >> c.shift] += 1.0;
    }
    const double per_bin = static_cast<double>(kDistDraws) / static_cast<double>(c.bins);
    const std::vector<double> expected(c.bins, per_bin);
    expect_chi_square(counts, expected,
                      "uniform_int [" + std::to_string(c.lo) + ", " + std::to_string(c.hi) + "]");
  }
  EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(RngDistribution, PoissonChiSquare) {
  // Means on both sides of the switch from inversion to PTRS at 10.  The
  // tiniest mean takes 10^7 draws so that its ones expect >= 5.
  Rng rng(307);
  for (const double mean : {1e-6, 0.5, 3.0, 9.99, 10.0, 40.0, 1e4}) {
    const std::size_t n = mean < 1e-3 ? 10 * kDistDraws : kDistDraws;
    const auto k_max = static_cast<std::size_t>(mean + 12.0 * std::sqrt(mean) + 30.0);
    std::vector<double> counts(k_max + 2, 0.0);  // the last bin holds k > k_max
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = rng.poisson(mean);
      counts[std::min<std::uint64_t>(k, k_max + 1)] += 1.0;
    }
    std::vector<double> expected(k_max + 2, 0.0);
    long double below = 0.0L;
    for (std::size_t k = 0; k <= k_max; ++k) {
      const long double kk = static_cast<long double>(k);
      const long double pmf = expl(kk * logl(static_cast<long double>(mean)) -
                                   static_cast<long double>(mean) - lgammal(kk + 1.0L));
      expected[k] = static_cast<double>(pmf * static_cast<long double>(n));
      below += pmf;
    }
    expected[k_max + 1] =
        static_cast<double>(std::max(0.0L, 1.0L - below)) * static_cast<double>(n);
    expect_chi_square(counts, expected, "poisson " + std::to_string(mean));
  }
}

TEST(RngDistribution, ShufflePermutationsOfThreeAreUniform) {
  Rng rng(308);
  std::map<std::vector<std::size_t>, double> counts;
  for (std::size_t i = 0; i < kDistDraws; ++i) {
    std::vector<std::size_t> idx = {0, 1, 2};
    rng.shuffle(idx);
    counts[idx] += 1.0;
  }
  ASSERT_EQ(counts.size(), 6u);
  std::vector<double> observed;
  for (const auto& [perm, c] : counts) observed.push_back(c);
  expect_chi_square(observed, std::vector<double>(6, static_cast<double>(kDistDraws) / 6.0),
                    "shuffle of 3");
  std::vector<std::size_t> empty;
  rng.shuffle(empty);
  std::vector<std::size_t> one = {4};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<std::size_t>{4});
}

TEST(RngDistribution, ConsecutiveForksAreUncorrelated) {
  // Pearson correlation of the i-th draws of children forked one after the
  // other: independent streams give r ~ N(0, 1 / n).
  Rng parent(309);
  constexpr std::size_t kChildren = 1000;
  constexpr std::size_t kPerChild = 1000;
  std::vector<std::vector<double>> draws(kChildren, std::vector<double>(kPerChild));
  for (auto& child_draws : draws) {
    Rng child = parent.fork();
    for (double& x : child_draws) x = child.uniform();
  }
  std::vector<double> a;
  std::vector<double> b;
  for (std::size_t c = 0; c + 1 < kChildren; ++c) {
    a.insert(a.end(), draws[c].begin(), draws[c].end());
    b.insert(b.end(), draws[c + 1].begin(), draws[c + 1].end());
  }
  const double r = stats::pearson(a, b);
  EXPECT_LE(std::abs(r), kSigmas / std::sqrt(static_cast<double>(a.size()))) << r;
}

// ---------------------------------------------------------------- elementary
//
// common/elementary's sin, cos and atan2 against long double references (its
// exp and log: suite Elementary in test_nn).

/// |got - ref| in units of the last place of a double of ref's magnitude
/// (2^-1074 below the normal range).
double ulp_error(double got, long double ref) {
  const int exponent = std::max(std::ilogb(ref), -1022);
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) /
                             std::ldexp(1.0L, exponent - 52));
}

struct WorstUlp {
  double ulp = 0.0;
  double at = 0.0;
};

template <class F, class Ref>
WorstUlp worst_ulp(const std::vector<double>& xs, F f, Ref ref) {
  WorstUlp w;
  for (const double x : xs) {
    const double e = ulp_error(f(x), ref(static_cast<long double>(x)));
    if (!(e <= w.ulp)) w = {e, x};
  }
  return w;
}

/// sin/cos inputs over the documented domain |x| <= 2^20: uniform over one
/// turn and over the domain, magnitudes log-spaced from 2^-60, and the
/// doubles nearest to k pi / 2, where the reduced argument is tiniest
/// (45.553093477052002 is the closest of all below 2^20).
std::vector<double> trig_sweep() {
  std::vector<double> xs;
  Rng rng(310);
  for (int i = 0; i < 1'000'000; ++i) xs.push_back(rng.uniform(-7.0, 7.0));
  for (int i = 0; i < 1'000'000; ++i) xs.push_back(rng.uniform(-0x1p20, 0x1p20));
  for (int i = 0; i < 200'000; ++i) {
    const double x = std::exp2(-60.0 + 80.0 * static_cast<double>(i) / 199'999.0);
    xs.push_back(x);
    xs.push_back(-x);
  }
  const long double pio2 = 1.5707963267948966192313216916397514L;
  for (long k = 1; k <= 667'544; k += (k < 100'000 ? 1 : 97)) {
    const double x = static_cast<double>(pio2 * static_cast<long double>(k));
    for (const double y : {x, std::nextafter(x, 0.0), std::nextafter(x, 1e300)}) {
      if (y <= 0x1p20) xs.push_back(y);
    }
  }
  xs.push_back(45.553093477052002);
  xs.push_back(0x1p20);
  return xs;
}

TEST(Elementary, SinCosWithinTwoUlpOfLongDouble) {
  const std::vector<double> xs = trig_sweep();
  const WorstUlp s = worst_ulp(
      xs, [](double x) { return elementary::sin(x); }, [](long double x) { return sinl(x); });
  EXPECT_LE(s.ulp, 2.0) << "sin at x = " << s.at;
  const WorstUlp c = worst_ulp(
      xs, [](double x) { return elementary::cos(x); }, [](long double x) { return cosl(x); });
  EXPECT_LE(c.ulp, 2.0) << "cos at x = " << c.at;
}

TEST(Elementary, SinIsOddCosIsEvenAndBothAreNanOutsideTheDomain) {
  for (const double x : trig_sweep()) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(elementary::sin(-x)),
              std::bit_cast<std::uint64_t>(-elementary::sin(x)))
        << x;
    ASSERT_EQ(elementary::cos(-x), elementary::cos(x)) << x;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(elementary::sin(-0.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(elementary::cos(0.0), 1.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double x : {std::nextafter(0x1p20, kInf), 1e10, kInf, -kInf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(std::isnan(elementary::sin(x))) << x;
    EXPECT_TRUE(std::isnan(elementary::cos(x))) << x;
  }
}

TEST(Elementary, Atan2WithinTwoUlpOfLongDouble) {
  // Points on circles of many radii, pairs with independent magnitudes
  // from 2^-1000 to 2^1000 (quotients that overflow and underflow), and the
  // sin/cos hour channels the observation decodes.
  std::vector<std::pair<double, double>> pts;
  Rng rng(311);
  for (int i = 0; i < 1'000'000; ++i) {
    const double theta = rng.uniform(-3.2, 3.2);
    const double radius = std::exp2(rng.uniform(-20.0, 20.0));
    pts.emplace_back(radius * std::sin(theta), radius * std::cos(theta));
  }
  for (int i = 0; i < 500'000; ++i) {
    const double y = (rng.bernoulli(0.5) ? 1.0 : -1.0) * std::exp2(rng.uniform(-1000.0, 1000.0));
    const double x = (rng.bernoulli(0.5) ? 1.0 : -1.0) * std::exp2(rng.uniform(-1000.0, 1000.0));
    pts.emplace_back(y, x);
  }
  for (int slot = 0; slot < 96; ++slot) {
    const double angle = 2.0 * std::numbers::pi * (0.25 * slot) / 24.0;
    pts.emplace_back(elementary::sin(angle), elementary::cos(angle));
  }
  double worst = 0.0;
  std::pair<double, double> at;
  for (const auto& [y, x] : pts) {
    const double e = ulp_error(elementary::atan2(y, x),
                               atan2l(static_cast<long double>(y), static_cast<long double>(x)));
    if (!(e <= worst)) {
      worst = e;
      at = {y, x};
    }
  }
  EXPECT_LE(worst, 2.0) << "at (y, x) = (" << at.first << ", " << at.second << ")";
}

TEST(Elementary, Atan2SpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kPi = std::numbers::pi;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(elementary::atan2(0.0, 0.0)), bits(0.0));
  EXPECT_EQ(bits(elementary::atan2(-0.0, 0.0)), bits(-0.0));
  EXPECT_EQ(elementary::atan2(0.0, -0.0), kPi);
  EXPECT_EQ(elementary::atan2(-0.0, -0.0), -kPi);
  EXPECT_EQ(elementary::atan2(0.0, -1.0), kPi);
  EXPECT_EQ(elementary::atan2(1.0, 0.0), kPi / 2);
  EXPECT_EQ(elementary::atan2(-1.0, -0.0), -kPi / 2);
  EXPECT_EQ(elementary::atan2(kInf, kInf), kPi / 4);
  EXPECT_EQ(elementary::atan2(-kInf, -kInf), -3 * kPi / 4);
  EXPECT_EQ(elementary::atan2(kInf, 1.0), kPi / 2);
  EXPECT_EQ(bits(elementary::atan2(1.0, kInf)), bits(0.0));
  EXPECT_EQ(elementary::atan2(-1.0, -kInf), -kPi);
  EXPECT_EQ(elementary::atan2(1.0, 1.0), kPi / 4);
  for (const double nan : {std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(std::isnan(elementary::atan2(nan, 1.0)));
    EXPECT_TRUE(std::isnan(elementary::atan2(1.0, nan)));
  }
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanAndVariance) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::mean(v), 2.5);
  EXPECT_DOUBLE_EQ(stats::variance(v), 1.25);
}

TEST(Stats, EmptyMeanIsZero) { EXPECT_DOUBLE_EQ(stats::mean({}), 0.0); }

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(stats::pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(x, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(stats::pearson(x, c), 0.0);
}

TEST(Stats, PearsonSizeMismatchThrows) {
  EXPECT_THROW(stats::pearson({1, 2}, {1}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(stats::percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 50), 20.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 25), 10.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(stats::percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(stats::percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, SortedPercentileMatchesPercentileAndValidates) {
  Rng rng(31);
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.normal(0.0, 5.0);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 1.0, 30.0, 50.0, 70.0, 99.0, 100.0}) {
      EXPECT_EQ(stats::sorted_percentile(sorted, p), stats::percentile(v, p)) << n << " " << p;
    }
  }
  EXPECT_THROW((void)stats::sorted_percentile({}, 50), std::invalid_argument);
  EXPECT_THROW((void)stats::sorted_percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW((void)stats::sorted_percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, AutocorrelationOfPeriodicSignal) {
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(stats::autocorrelation(v, 2), 0.9);
  EXPECT_LT(stats::autocorrelation(v, 1), -0.9);
}

// ---------------------------------------------------------------- TextTable

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"Method", "Reward"});
  t.begin_row().add("Ours").add_double(12.345, 2);
  t.begin_row().add("OR").add_int(7);
  const std::string s = t.str();
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("12.35"), std::string::npos);
  EXPECT_NE(s.find("OR"), std::string::npos);
}

TEST(TextTable, IncompleteRowThrowsOnRender) {
  TextTable t({"a", "b"});
  t.begin_row().add("only-one");
  EXPECT_THROW(t.str(), std::logic_error);
}

TEST(TextTable, TooManyCellsThrows) {
  TextTable t({"a"});
  t.begin_row().add("x");
  EXPECT_THROW(t.add("y"), std::logic_error);
}

// ---------------------------------------------------------------- CliFlags

TEST(CliFlags, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hello", "--flag"};
  const CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_size("alpha", 0), 3u);
  EXPECT_EQ(flags.get_string("beta", ""), "hello");
  EXPECT_TRUE(flags.get_bool("flag"));
}

TEST(CliFlags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_size("missing", 9), 9u);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.get_bool("missing"));
}

TEST(CliFlags, BadIntegerThrows) {
  const char* argv[] = {"prog", "--n", "abc"};
  const CliFlags flags(3, argv);
  EXPECT_THROW((void)flags.get_size("n", 0), std::invalid_argument);
}

TEST(CliFlags, PositionalArguments) {
  const char* argv[] = {"prog", "pos1", "--k", "v", "pos2"};
  const CliFlags flags(5, argv);
  (void)flags.get_string("k", "");
  // --k consumes "v", so pos1 and pos2 are the positionals, and no binary
  // takes any: check_unknown rejects them by name.
  try {
    flags.check_unknown();
    FAIL() << "check_unknown accepted positional arguments";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'pos1', 'pos2'"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------- binio

TEST(Binio, WritersAreLittleEndianByteByByte) {
  std::string out;
  binio::put_u32(out, 0x04030201u);
  binio::put_u64(out, 0x0c0b0a0908070605ull);
  binio::put_double(out, -2.0);  // bit pattern 0xc000000000000000
  binio::put_string(out, "ab");
  const std::string want("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"
                         "\x00\x00\x00\x00\x00\x00\x00\xc0"
                         "\x02\x00\x00\x00\x00\x00\x00\x00" "ab",
                         4 + 8 + 8 + 8 + 2);
  EXPECT_EQ(out, want);
}

TEST(Binio, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(binio::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(binio::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(binio::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Binio, OpenReturnsSealedPayloadsAndChecksInOrder) {
  const std::uint32_t kIds[] = {7, 9};
  const binio::Container kTest{"test", "TEST", 3, kIds};
  const std::string_view payloads[] = {"first", ""};
  const std::string bytes = binio::seal(kTest, payloads);
  const std::vector<std::string_view> back = binio::open(bytes, kTest);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], "first");
  EXPECT_EQ(back[1], "");

  EXPECT_THROW((void)binio::open("TE", kTest), binio::TruncatedError);
  EXPECT_THROW((void)binio::open("NOPE and more bytes", kTest), binio::MagicError);
  std::string wrong_version = bytes;
  wrong_version[4] = 4;
  EXPECT_THROW((void)binio::open(wrong_version, kTest), binio::VersionError);
  EXPECT_THROW((void)binio::open(std::string_view(bytes).substr(0, bytes.size() - 1), kTest),
               binio::TruncatedError);
  std::string flipped = bytes;
  flipped[26] ^= 0x10;  // inside the first payload
  EXPECT_THROW((void)binio::open(flipped, kTest), binio::ChecksumError);
  EXPECT_THROW((void)binio::open(bytes + "x", kTest), binio::FormatError);

  // A well-sealed container with another section sequence.
  const std::uint32_t kOtherIds[] = {7, 8};
  EXPECT_THROW((void)binio::open(bytes, {"test", "TEST", 3, kOtherIds}), binio::FormatError);
  EXPECT_THROW((void)binio::open(bytes, {"test", "TEST", 3, std::span(kIds, 1)}),
               binio::FormatError);
  EXPECT_THROW((void)binio::seal(kTest, std::span(payloads, 1)), std::invalid_argument);
}

TEST(Binio, ReaderIsBoundedByItsPayloadAndRejectsNonFiniteDoubles) {
  std::string payload;
  binio::put_double(payload, 1.5);
  binio::put_double(payload, std::numeric_limits<double>::quiet_NaN());
  binio::put_double(payload, -std::numeric_limits<double>::infinity());
  binio::put_u64(payload, UINT64_MAX);  // a string length no payload can hold
  binio::Reader in(payload, "payload");
  EXPECT_EQ(in.f64(), 1.5);
  EXPECT_THROW((void)in.f64(), binio::FormatError);
  EXPECT_THROW((void)in.f64(), binio::FormatError);
  EXPECT_THROW(in.expect_end(), binio::FormatError);
  EXPECT_THROW((void)in.str(), binio::FormatError);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_NO_THROW(in.expect_end());
  EXPECT_THROW((void)in.u64(), binio::FormatError);
}

TEST(Binio, FilesRoundTripAndMissingOnesAreErrors) {
  const std::string path = testing::TempDir() + "/ecthub_binio.bin";
  const std::string bytes("\x00\xff" "binary\n", 9);
  binio::write_file(path, bytes);
  EXPECT_EQ(binio::read_file(path), bytes);
  std::remove(path.c_str());
  EXPECT_THROW((void)binio::read_file(path), binio::Error);
  EXPECT_THROW(binio::write_file(testing::TempDir() + "/no/such/dir/f.bin", bytes),
               binio::Error);
}

// ---------------------------------------------------------------- write_csv

TEST(WriteCsv, RoundTripsColumns) {
  const std::string path = testing::TempDir() + "/ecthub_test.csv";
  write_csv(path, {"x", "y"}, {{1.0, 2.0}, {3.0, 4.0}});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,3");
  std::remove(path.c_str());
}

TEST(WriteCsv, RejectsRaggedColumns) {
  EXPECT_THROW(write_csv("/tmp/x.csv", {"a", "b"}, {{1.0}, {1.0, 2.0}}), std::runtime_error);
}

// ------------------------------------------------------------- BarrierCrew

TEST(BarrierCrew, EachIndexRunsOncePerRunAndTheCoordinatorTakesTheLast) {
  for (const std::size_t size : {1u, 2u, 4u, 8u}) {
    BarrierCrew crew(size);
    ASSERT_EQ(crew.size(), size);
    std::vector<std::atomic<int>> calls(size);
    std::vector<std::thread::id> ran_on(size);
    const std::function<void(std::size_t)> task = [&](std::size_t i) {
      calls[i].fetch_add(1);
      ran_on[i] = std::this_thread::get_id();
    };
    constexpr int kRuns = 5;
    for (int r = 0; r < kRuns; ++r) crew.run(task);
    for (std::size_t i = 0; i < size; ++i) EXPECT_EQ(calls[i].load(), kRuns) << size << " " << i;
    EXPECT_EQ(ran_on[size - 1], std::this_thread::get_id()) << size;
    for (std::size_t i = 0; i + 1 < size; ++i) {
      EXPECT_NE(ran_on[i], std::this_thread::get_id()) << size << " " << i;
    }
  }
}

TEST(BarrierCrew, AThrowingMemberRethrowsAfterEveryMemberFinishes) {
  BarrierCrew crew(4);
  std::vector<std::atomic<int>> finished(4);
  const std::function<void(std::size_t)> task = [&](std::size_t i) {
    if (i == 0) throw std::runtime_error("member 0 failed");
    // The others outlast the thrower: run() may only return after them.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished[i].store(1);
  };
  try {
    crew.run(task);
    ADD_FAILURE() << "run did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "member 0 failed");
  }
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(finished[i].load(), 1) << i;

  // The crew stays usable, and a clean run no longer throws.
  std::atomic<int> calls{0};
  crew.run([&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);
}

TEST(BarrierCrew, SeveralThrowersGiveExactlyOneException) {
  BarrierCrew crew(8);
  const std::function<void(std::size_t)> task = [](std::size_t i) {
    throw std::runtime_error("member " + std::to_string(i));
  };
  for (int r = 0; r < 3; ++r) {
    int caught = 0;
    try {
      crew.run(task);
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_EQ(std::string(e.what()).rfind("member ", 0), 0u) << e.what();
    }
    EXPECT_EQ(caught, 1);
  }
  std::atomic<int> calls{0};
  crew.run([&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(BarrierCrew, DestroyedWithoutARunJoinsCleanly) {
  for (const std::size_t size : {1u, 2u, 4u, 8u}) {
    const BarrierCrew crew(size);
    EXPECT_EQ(crew.size(), size);
  }
}

// The handoff: a waiter yields for a bounded number of tries (about a
// millisecond idle), then parks in std::atomic::wait.  kParked outlasts that
// bound many times over, so a member that waits through it takes the park
// path.
constexpr auto kParked = std::chrono::milliseconds(25);

TEST(BarrierCrew, ThousandsOfShortPhasesRunEveryIndexOncePerPhase) {
  for (const std::size_t size : {2u, 4u, 8u}) {
    BarrierCrew crew(size);
    // Plain ints on purpose: only the handoff orders the coordinator's write
    // of `phase` before the members' reads, and each member's writes before
    // the coordinator's reads after run() (TSan checks both).
    int phase = 0;
    std::vector<int> runs(size, 0);
    std::vector<int> saw(size, -1);
    const std::function<void(std::size_t)> task = [&](std::size_t i) {
      ++runs[i];
      saw[i] = phase;
    };
    constexpr int kPhases = 2000;
    for (phase = 0; phase < kPhases; ++phase) {
      crew.run(task);
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(runs[i], phase + 1) << size << " " << i;
        ASSERT_EQ(saw[i], phase) << size << " " << i;
      }
    }
  }
}

TEST(BarrierCrew, ASlowMemberLetsTheOthersParkAndComeBack) {
  // Each phase one member, worker or coordinator in turn, sleeps past the
  // yield bound: the coordinator parks waiting for a slow worker, and the
  // workers park waiting for the next phase behind a slow coordinator.
  constexpr std::size_t kSize = 4;
  BarrierCrew crew(kSize);
  int phase = 0;
  std::vector<int> saw(kSize, -1);
  const std::function<void(std::size_t)> task = [&](std::size_t i) {
    if (i == static_cast<std::size_t>(phase) % kSize) std::this_thread::sleep_for(kParked);
    saw[i] = phase;
  };
  for (phase = 0; phase < static_cast<int>(kSize); ++phase) {
    crew.run(task);
    for (std::size_t i = 0; i < kSize; ++i) EXPECT_EQ(saw[i], phase) << i;
  }
}

TEST(BarrierCrew, DestroyedWhileItsWorkersAreParkedJoinsCleanly) {
  for (const std::size_t size : {2u, 4u, 8u}) {
    {
      const BarrierCrew crew(size);
      std::this_thread::sleep_for(kParked);  // parked before any phase opened
    }
    BarrierCrew crew(size);
    std::atomic<int> calls{0};
    crew.run([&](std::size_t) { calls.fetch_add(1); });
    std::this_thread::sleep_for(kParked);  // parked after a phase
    EXPECT_EQ(calls.load(), static_cast<int>(size));
  }  // each destructor wakes its parked workers and joins them
}

TEST(BarrierCrew, AThrowOnTheParkPathIsRethrown) {
  constexpr std::size_t kSize = 4;
  BarrierCrew crew(kSize);
  // A worker throws after the coordinator has parked waiting for it, then
  // the coordinator throws after the workers have parked for the next phase.
  for (const std::size_t thrower : {std::size_t{0}, kSize - 1}) {
    std::vector<std::atomic<int>> finished(kSize);
    const std::function<void(std::size_t)> task = [&](std::size_t i) {
      if (i == thrower) {
        std::this_thread::sleep_for(kParked);
        throw std::runtime_error("member " + std::to_string(i));
      }
      finished[i].store(1);
    };
    try {
      crew.run(task);
      ADD_FAILURE() << "run did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "member " + std::to_string(thrower));
    }
    for (std::size_t i = 0; i < kSize; ++i) {
      if (i != thrower) {
        EXPECT_EQ(finished[i].load(), 1) << thrower << " " << i;
      }
    }
  }
  std::atomic<int> calls{0};
  crew.run([&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), static_cast<int>(kSize));
}

TEST(BarrierCrew, CrewSizeClampsToTheWorkItems) {
  EXPECT_EQ(crew_size(8, 3), 3u);
  EXPECT_EQ(crew_size(2, 0), 1u);
  EXPECT_EQ(crew_size(0, 1), 1u);
  EXPECT_EQ(crew_size(3, 8), 3u);
}

// 0 sizes the crew by the CPUs this thread may run on, so a process confined
// by taskset gets one member per CPU it was given, not per CPU online.
TEST(BarrierCrew, CrewSizeZeroCountsTheAffinityMask) {
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t confined = crew_size(0, 8);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(confined, 1u);
  EXPECT_EQ(crew_size(0, 8), std::min<std::size_t>(8, CPU_COUNT(&original)));
}

}  // namespace
}  // namespace ecthub
