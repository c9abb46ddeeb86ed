// Unit tests for the common substrate: time grid, RNG, statistics, tables.
#include "common/binio.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/exact_sum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
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

TEST(TimeGrid, HoursFromStartAccumulates) {
  const TimeGrid grid(2, 24);
  EXPECT_DOUBLE_EQ(grid.hours_from_start(25), 25.0);
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
  EXPECT_THROW((void)grid.day_start(1), std::out_of_range);
}

TEST(TimeGrid, DayStart) {
  const TimeGrid grid(3, 24);
  EXPECT_EQ(grid.day_start(2), 48u);
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

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
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
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<std::size_t> idx = {0, 1, 2, 3, 4, 5, 6, 7};
  auto copy = idx;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, idx);
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

TEST(Stats, MovingAverageSmoothes) {
  const std::vector<double> v = {0, 10, 0, 10, 0, 10};
  const auto ma = stats::moving_average(v, 3);
  EXPECT_EQ(ma.size(), v.size());
  // Interior points average their neighbourhood.
  EXPECT_NEAR(ma[2], (10.0 + 0.0 + 10.0) / 3.0, 1e-12);
}

TEST(Stats, MovingAverageEvenWindowIsExactlyThatWide) {
  // Regression: w=4 used to average 2*(4/2)+1 = 5 elements, so no even
  // request ever got its own width.  The contract is exactly w interior
  // elements, the extra one on the newer side: out[i] = mean(v[i-1..i+2]).
  const std::vector<double> v = {1, 2, 4, 8, 16, 32};
  const auto ma = stats::moving_average(v, 4);
  ASSERT_EQ(ma.size(), v.size());
  EXPECT_NEAR(ma[2], (2.0 + 4.0 + 8.0 + 16.0) / 4.0, 1e-12);
  EXPECT_NEAR(ma[3], (4.0 + 8.0 + 16.0 + 32.0) / 4.0, 1e-12);
  // Edges clamp to what exists: out[0] spans v[0..2], out[5] spans v[4..5].
  EXPECT_NEAR(ma[0], (1.0 + 2.0 + 4.0) / 3.0, 1e-12);
  EXPECT_NEAR(ma[5], (16.0 + 32.0) / 2.0, 1e-12);
}

TEST(Stats, MovingAverageWidthOneIsIdentityAndOddStaysSymmetric) {
  const std::vector<double> v = {3, 1, 4, 1, 5};
  EXPECT_EQ(stats::moving_average(v, 1), v);
  const auto ma2 = stats::moving_average(v, 2);  // out[i] = mean(v[i..i+1])
  EXPECT_NEAR(ma2[0], 2.0, 1e-12);
  EXPECT_NEAR(ma2[3], 3.0, 1e-12);
  EXPECT_NEAR(ma2[4], 5.0, 1e-12);  // clamped: only v[4] remains
  EXPECT_THROW((void)stats::moving_average(v, 0), std::invalid_argument);
}

TEST(Stats, HistogramCountsAndClamps) {
  const std::vector<double> v = {-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = stats::histogram(v, 0.0, 1.0, 2);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0] + h[1], v.size());
  EXPECT_EQ(h[0], 2u);  // -1 clamped into bin 0, plus 0.1; 0.5/0.9/2.0 land in bin 1
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

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.begin_row().add("1").add("2");
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
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
  // "pos2" follows a consumed flag value, so only pos1 is positional... or
  // both: --k consumes "v", then pos2 is positional.
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.positional()[1], "pos2");
}

// ---------------------------------------------------------------- ExactSum

TEST(ExactSum, SumsExactlyAndRoundsOnce) {
  ExactSum s;
  s += 0.1;
  s += 0.2;
  // 0.1 + 0.2 in exact arithmetic rounds to the double nearest the true
  // sum — the same 0x3FD3333333333334 the hardware add produces.
  EXPECT_EQ(s.value(), 0.1 + 0.2);
  ExactSum t;
  t += 1.0;
  t += 2.0;
  t += 3.0;
  EXPECT_EQ(t.value(), 6.0);
  EXPECT_EQ(ExactSum{}.value(), 0.0);
}

TEST(ExactSum, OrderAndGroupingIndependent) {
  // The addends are chosen so plain double folds disagree between orders
  // (1e16 + 1 + ... loses the 1s); the exact register cannot.
  const std::vector<double> xs = {1e16, 1.0, -1e16, 1.0, 3.5e-10, -7.25, 1e16, 1.0};
  ExactSum forward;
  for (const double x : xs) forward += x;
  ExactSum backward;
  for (std::size_t i = xs.size(); i-- > 0;) backward += xs[i];
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.value(), backward.value());
  // Any binary partition merged limb-wise equals the sequential fold.
  for (std::size_t cut = 0; cut <= xs.size(); ++cut) {
    ExactSum left;
    ExactSum right;
    for (std::size_t i = 0; i < cut; ++i) left += xs[i];
    for (std::size_t i = cut; i < xs.size(); ++i) right += xs[i];
    left += right;
    EXPECT_EQ(left, forward) << "cut " << cut;
  }
}

TEST(ExactSum, ExactCancellationAndNegatives) {
  ExactSum s;
  s += 1e308;
  s += -1e308;
  EXPECT_EQ(s, ExactSum{});
  EXPECT_EQ(s.value(), 0.0);
  ExactSum neg;
  neg += -2.5;
  neg += -0.25;
  EXPECT_EQ(neg.value(), -2.75);
  // A transiently negative register recovers exactly.
  ExactSum swing;
  swing += -1e20;
  swing += 1e20;
  swing += 0.5;
  EXPECT_EQ(swing.value(), 0.5);
}

TEST(ExactSum, RoundsTiesToEven) {
  const double big = 9007199254740992.0;  // 2^53
  ExactSum tie_down;                      // 2^53 + 1 is a tie -> stays 2^53 (even)
  tie_down += big;
  tie_down += 1.0;
  EXPECT_EQ(tie_down.value(), big);
  ExactSum tie_up;  // 2^53 + 2 + 1 is a tie -> rounds to 2^53 + 4 (even)
  tie_up += big;
  tie_up += 2.0;
  tie_up += 1.0;
  EXPECT_EQ(tie_up.value(), big + 4.0);
  ExactSum above;  // 2^53 + 1 + tiny is above the tie -> rounds up
  above += big;
  above += 1.0;
  above += 1e-30;
  EXPECT_EQ(above.value(), big + 2.0);
}

TEST(ExactSum, HandlesSubnormalsAndZeroes) {
  const double denorm_min = 4.9406564584124654e-324;  // 2^-1074
  ExactSum s;
  s += denorm_min;
  s += denorm_min;
  EXPECT_EQ(s.value(), 2.0 * denorm_min);
  s += -denorm_min;
  s += -denorm_min;
  EXPECT_EQ(s.value(), 0.0);
  s += 0.0;
  s += -0.0;
  EXPECT_EQ(s, ExactSum{});
  EXPECT_FALSE(std::signbit(s.value()));
}

TEST(ExactSum, RejectsNonFiniteAddends) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(s.add(-std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_EQ(s, ExactSum{});  // failed adds leave the register untouched
}

TEST(ExactSum, LimbsRoundTrip) {
  ExactSum s;
  s += 123.456;
  s += -0.001;
  s += 9.875e12;
  const ExactSum restored = ExactSum::from_limbs(s.limbs());
  EXPECT_EQ(restored, s);
  EXPECT_EQ(restored.value(), s.value());
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

}  // namespace
}  // namespace ecthub
