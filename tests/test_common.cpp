// Unit tests for the common substrate: time grid, RNG, statistics, tables,
// the barrier crew.
#include "common/binio.hpp"
#include "common/cli.hpp"
#include "common/crew.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <random>
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
  EXPECT_DOUBLE_EQ(grid.slot_hours(), 1.0);
  const TimeGrid half(2, 48);
  EXPECT_DOUBLE_EQ(half.slot_hours(), 0.5);
}

TEST(TimeGrid, RejectsZeroDays) {
  EXPECT_THROW(TimeGrid(0, 24), std::invalid_argument);
  EXPECT_THROW(TimeGrid(1, 0), std::invalid_argument);
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
  const TimeGrid grid(2, 48);
  EXPECT_DOUBLE_EQ(grid.hour_of_day(0), 0.0);
  EXPECT_DOUBLE_EQ(grid.hour_of_day(1), 0.5);
  EXPECT_DOUBLE_EQ(grid.hour_of_day(49), 0.5);
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
  for (const std::size_t spd : {24u, 96u, 7u}) {
    const TimeGrid grid(9, spd);
    std::vector<double> out(grid.size(), -1.0);
    std::size_t calls = 0;
    fill_by_slot_of_day(grid, out, [&calls](double hour) {
      ++calls;
      return 3.0 * hour - 1.0;
    });
    EXPECT_EQ(calls, spd);
    for (std::size_t t = 0; t < grid.size(); ++t) {
      EXPECT_EQ(out[t], 3.0 * grid.hour_of_day(t) - 1.0) << spd << " " << t;
    }
    std::vector<double> short_out(grid.size() - 1);
    EXPECT_THROW(fill_by_slot_of_day(grid, short_out, [](double h) { return h; }),
                 std::invalid_argument);
  }
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

// For stddev > 0, Rng::normal is the draw std::normal_distribution(mean,
// stddev) makes on the same engine, so every generator keeps its stream.  A
// zero stddev returns the mean and consumes the draws a standard normal does.
TEST(Rng, NormalMatchesTheLibraryDrawAndTakesZeroSigma) {
#if defined(__GLIBCXX__)
  Rng rng(77);
  std::mt19937_64 engine(77);
  for (int i = 0; i < 20000; ++i) {
    const double mean = 0.01 * (i % 201) - 1.0;
    const double stddev = 0.001 + 0.05 * (i % 97);
    std::normal_distribution<double> d(mean, stddev);
    ASSERT_EQ(rng.normal(mean, stddev), d(engine)) << i;
  }
#endif
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

// ------------------------------------------------- Rng against libstdc++
//
// Rng replays libstdc++ 12's std::mt19937_64 and distributions.  These pin
// that draw for draw, bit for bit, against <random> on a same-seeded
// std::mt19937_64, at >= 10^6 draws per parameter set.  Each loop interleaves
// its parameter sets, so a draw that takes one engine word too many or too
// few fails at once.
#if defined(__GLIBCXX__)

static_assert(std::uniform_random_bit_generator<Mt19937_64>);
static_assert(sizeof(Rng) == sizeof(std::mt19937_64));

constexpr int kLibDraws = 1'000'000;

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(RngLibstdcxx, EngineMatchesMt19937_64) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42}, ~std::uint64_t{0},
        mix_seed(7, 0), mix_seed(7, 1), mix_seed(2, 479)}) {
    Mt19937_64 owned(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < kLibDraws; ++i) ASSERT_EQ(owned(), ref()) << seed << " draw " << i;
  }
}

TEST(RngLibstdcxx, CopyMidBlockAndForkContinueTheLibraryStream) {
  Mt19937_64 owned(2021);
  std::mt19937_64 ref(2021);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(owned(), ref());  // 3 twists + 64 words
  Mt19937_64 copy = owned;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t r = ref();
    ASSERT_EQ(owned(), r) << i;
    ASSERT_EQ(copy(), r) << i;
  }
  // fork() seeds the child with the parent's next word; 400 forks cross a
  // twist of the parent.
  Rng parent(99);
  std::mt19937_64 ref_parent(99);
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  for (int k = 0; k < 400; ++k) {
    Rng child = parent.fork();
    std::mt19937_64 ref_child(ref_parent());
    std::uniform_int_distribution<std::int64_t> full(lo, hi);
    for (int i = 0; i < 3; ++i) ASSERT_EQ(child.uniform_int(lo, hi), full(ref_child)) << k;
  }
}

TEST(RngLibstdcxx, CanonicalMatchesGenerateCanonicalAndClamps) {
  // Chance never reaches the clamp (p ~ 2^-54 per draw): script the words.
  struct Scripted {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type word;
    result_type operator()() { return word; }
  };
  const std::uint64_t top = ~std::uint64_t{0};
  for (const std::uint64_t word :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 63, top - 2047, top - 1023, top}) {
    Scripted g{word};
    const double lib = std::generate_canonical<double, 64>(g);
    EXPECT_EQ(bits_of(canonical_from_bits(word)), bits_of(lib)) << word;
    EXPECT_LT(canonical_from_bits(word), 1.0) << word;
  }
  // 2^64 - 2^10 and above round to 2^64 and clamp to the largest double < 1.
  EXPECT_EQ(canonical_from_bits(top - 1023), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical_from_bits(top), std::nextafter(1.0, 0.0));
}

TEST(RngLibstdcxx, UniformMatchesUniformRealDistribution) {
  const std::pair<double, double> sets[] = {
      {0.0, 1.0}, {2.0, 3.0}, {-7.5, -2.25}, {4.0, 4.0}, {-1e9, 1e9}, {-0.0, 0.0}};
  Rng rng(1);
  std::mt19937_64 ref(1);
  for (int i = 0; i < kLibDraws; ++i) {
    for (const auto& [lo, hi] : sets) {
      std::uniform_real_distribution<double> d(lo, hi);
      ASSERT_EQ(bits_of(rng.uniform(lo, hi)), bits_of(d(ref))) << lo << ", " << hi << " @" << i;
    }
  }
}

TEST(RngLibstdcxx, NormalMatchesNormalDistributionAndTakesZeroSigma) {
  const std::pair<double, double> sets[] = {
      {0.0, 1.0}, {5.0, 2.0}, {-3.0, 0.5}, {1e3, 1e-3}, {2.5, 0.0}};
  Rng rng(2);
  std::mt19937_64 ref(2);
  for (int i = 0; i < kLibDraws; ++i) {
    for (const auto& [mean, stddev] : sets) {
      // The library requires stddev > 0; sigma 0 scales its standard draw.
      const double expected = stddev > 0.0
                                  ? std::normal_distribution<double>(mean, stddev)(ref)
                                  : std::normal_distribution<double>()(ref) * stddev + mean;
      ASSERT_EQ(bits_of(rng.normal(mean, stddev)), bits_of(expected))
          << mean << ", " << stddev << " @" << i;
    }
  }
}

TEST(RngLibstdcxx, BernoulliMatchesBernoulliDistribution) {
  const double sets[] = {1e-9, 1e-3, 0.25, 0.5, 0.9, 1.0 - 1e-9};
  Rng rng(3);
  std::mt19937_64 ref(3);
  for (int i = 0; i < kLibDraws; ++i) {
    for (const double p : sets) {
      ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution(p)(ref)) << p << " @" << i;
    }
  }
}

TEST(RngLibstdcxx, UniformIntMatchesUniformIntDistribution) {
  const std::int64_t i64_min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t i64_max = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> sets[] = {
      {0, 0}, {0, 1}, {0, 3}, {-5, 5}, {0, std::int64_t{1} << 32}, {i64_min, i64_max},
      // 2^63 + 1 values: Lemire's method redraws about half the time.
      {i64_min, 0}};
  Rng rng(4);
  std::mt19937_64 ref(4);
  for (int i = 0; i < kLibDraws; ++i) {
    for (const auto& [lo, hi] : sets) {
      std::uniform_int_distribution<std::int64_t> d(lo, hi);
      ASSERT_EQ(rng.uniform_int(lo, hi), d(ref)) << lo << ", " << hi << " @" << i;
    }
  }
}

TEST(RngLibstdcxx, PoissonMatchesPoissonDistribution) {
  // Below 12 the product method; from 12 up Devroye's rejection, whose
  // normal draws share one spare per call.
  const double sets[] = {1e-6, 0.5, 3.0, 11.99, 12.0, 40.0, 1e4};
  Rng rng(5);
  std::mt19937_64 ref(5);
  for (int i = 0; i < kLibDraws; ++i) {
    for (const double mean : sets) {
      std::poisson_distribution<std::uint64_t> d(mean);
      ASSERT_EQ(rng.poisson(mean), d(ref)) << mean << " @" << i;
    }
  }
}

TEST(RngLibstdcxx, ExponentialMatchesExponentialDistribution) {
  const double sets[] = {1e-3, 1.0, 50.0};
  Rng rng(6);
  std::mt19937_64 ref(6);
  for (int i = 0; i < kLibDraws; ++i) {
    for (const double rate : sets) {
      std::exponential_distribution<double> d(rate);
      ASSERT_EQ(bits_of(rng.exponential(rate)), bits_of(d(ref))) << rate << " @" << i;
    }
  }
}

TEST(RngLibstdcxx, ShuffleMatchesStdShuffle) {
  // Rounds per size give each size that draws >= 10^6 draws: an n-element
  // shuffle takes n / 2 of them (one per pair of positions).
  const std::pair<std::size_t, int> sizes[] = {
      {0, kLibDraws}, {1, kLibDraws}, {2, kLibDraws}, {3, kLibDraws},
      {100, kLibDraws / 50}, {5000, kLibDraws / 2500}};
  std::vector<std::vector<std::size_t>> owned;
  for (const auto& [n, rounds] : sizes) {
    owned.emplace_back(n);
    std::iota(owned.back().begin(), owned.back().end(), std::size_t{0});
  }
  std::vector<std::vector<std::size_t>> lib = owned;
  Rng rng(7);
  std::mt19937_64 ref(7);
  for (int r = 0; r < kLibDraws; ++r) {
    for (std::size_t s = 0; s < owned.size(); ++s) {
      if (r >= sizes[s].second) continue;
      rng.shuffle(owned[s]);
      std::shuffle(lib[s].begin(), lib[s].end(), ref);
      ASSERT_EQ(owned[s], lib[s]) << "size " << sizes[s].first << " round " << r;
    }
  }
}

#endif  // __GLIBCXX__

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

TEST(BarrierCrew, CrewSizeClampsToTheWorkItems) {
  EXPECT_EQ(crew_size(8, 3), 3u);
  EXPECT_EQ(crew_size(2, 0), 1u);
  EXPECT_EQ(crew_size(0, 1), 1u);
  EXPECT_EQ(crew_size(3, 8), 3u);
}

}  // namespace
}  // namespace ecthub
