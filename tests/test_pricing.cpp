// Tests for the pricing substrate: RTP generator and selling policy.
#include "common/stats.hpp"
#include "pricing/rtp.hpp"
#include "pricing/selling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ecthub::pricing {
namespace {

// ---------------------------------------------------------------- RTP

TEST(RtpGenerator, PricesAboveFloor) {
  RtpGenerator gen(RtpConfig{}, Rng(1));
  const TimeGrid grid(30, 24);
  std::vector<double> price;
  gen.generate_into(grid, {}, price);
  ASSERT_EQ(price.size(), grid.size());
  for (double p : price) EXPECT_GE(p, RtpConfig{}.floor_price);
}

TEST(RtpGenerator, EveningPeakExceedsNightTrough) {
  RtpConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.spike_prob = 0.0;
  RtpGenerator gen(cfg, Rng(2));
  const TimeGrid grid(1, 24);
  std::vector<double> price;
  gen.generate_into(grid, {}, price);
  EXPECT_GT(price[20], price[4]);
  EXPECT_GT(price[20], cfg.base_price);
  EXPECT_LT(price[4], cfg.base_price);
}

TEST(RtpGenerator, DiurnalComponentShape) {
  RtpGenerator gen(RtpConfig{}, Rng(3));
  EXPECT_GT(gen.diurnal_component(20.0), gen.diurnal_component(12.0));
  EXPECT_LT(gen.diurnal_component(4.0), 0.0);
}

TEST(RtpGenerator, LoadCouplingRaisesPrices) {
  RtpConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.spike_prob = 0.0;
  cfg.load_coupling = 50.0;
  const TimeGrid grid(2, 24);
  const std::vector<double> full_load(grid.size(), 1.0);
  const std::vector<double> no_load(grid.size(), 0.0);
  std::vector<double> hi;
  RtpGenerator(cfg, Rng(4)).generate_into(grid, full_load, hi);
  std::vector<double> lo;
  RtpGenerator(cfg, Rng(4)).generate_into(grid, no_load, lo);
  for (std::size_t t = 0; t < grid.size(); ++t) EXPECT_NEAR(hi[t] - lo[t], 50.0, 1e-9);
}

TEST(RtpGenerator, CorrelatesWithCoupledLoad) {
  // The Fig. 5 observation: price and load positively correlated.
  RtpConfig cfg;
  const TimeGrid grid(30, 24);
  std::vector<double> load(grid.size());
  for (std::size_t t = 0; t < grid.size(); ++t) {
    // Evening-peaking load, in phase with the paper's Fig. 5 measurement.
    load[t] = 0.5 + 0.5 * std::sin(2.0 * 3.14159 * (grid.hour_of_day(t) - 14.0) / 24.0);
  }
  std::vector<double> price;
  RtpGenerator(cfg, Rng(5)).generate_into(grid, load, price);
  EXPECT_GT(stats::pearson(price, load), 0.2);
}

TEST(RtpGenerator, SpikesRaiseExtremes) {
  RtpConfig no_spike;
  no_spike.spike_prob = 0.0;
  RtpConfig spiky;
  spiky.spike_prob = 0.2;
  spiky.spike_scale = 100.0;
  const TimeGrid grid(60, 24);
  std::vector<double> calm;
  RtpGenerator(no_spike, Rng(6)).generate_into(grid, {}, calm);
  std::vector<double> wild;
  RtpGenerator(spiky, Rng(6)).generate_into(grid, {}, wild);
  EXPECT_GT(stats::max(wild), stats::max(calm));
}

TEST(RtpGenerator, GenerateIntoMatchesGenerateAndReusesBuffers) {
  const TimeGrid grid(3, 24);
  std::vector<double> fresh;
  RtpGenerator(RtpConfig{}, Rng(41)).generate_into(grid, {}, fresh);

  // A stale buffer of another length is overwritten whole.
  RtpGenerator gen(RtpConfig{}, Rng(41));
  std::vector<double> reused(7, -1.0);
  gen.generate_into(grid, {}, reused);
  EXPECT_EQ(reused, fresh);

  // A second pass must reuse the buffer (no realloc) and draw a fresh
  // stochastic stream, not replay the first.
  const double* buf = reused.data();
  const double first_p0 = reused[0];
  gen.generate_into(grid, {}, reused);
  EXPECT_EQ(reused.data(), buf);
  EXPECT_EQ(reused.size(), grid.size());
  EXPECT_NE(reused[0], first_p0);
}

TEST(RtpGenerator, LoadLengthMismatchThrows) {
  RtpGenerator gen(RtpConfig{}, Rng(7));
  const TimeGrid grid(2, 24);
  std::vector<double> price;
  EXPECT_THROW(gen.generate_into(grid, std::vector<double>(5, 0.5), price),
               std::invalid_argument);
}

TEST(RtpGenerator, RejectsBadConfig) {
  RtpConfig bad;
  bad.base_price = 0.0;
  EXPECT_THROW(RtpGenerator(bad, Rng(1)), std::invalid_argument);
  RtpConfig bad2;
  bad2.spike_prob = 2.0;
  EXPECT_THROW(RtpGenerator(bad2, Rng(1)), std::invalid_argument);
  RtpConfig sigma;
  sigma.noise_sigma = -4.0;
  EXPECT_THROW(RtpGenerator(sigma, Rng(1)), std::invalid_argument);
  sigma.noise_sigma = 0.0;  // a noise-free price curve is valid
  EXPECT_NO_THROW(RtpGenerator(sigma, Rng(1)));
}

// Property sweep: determinism and floor invariants across seeds.
class RtpSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtpSeedSweep, DeterministicAndFloored) {
  const std::uint64_t seed = GetParam();
  const TimeGrid grid(10, 24);
  std::vector<double> a;
  RtpGenerator(RtpConfig{}, Rng(seed)).generate_into(grid, {}, a);
  std::vector<double> b;
  RtpGenerator(RtpConfig{}, Rng(seed)).generate_into(grid, {}, b);
  EXPECT_EQ(a, b);
  for (double p : a) EXPECT_GE(p, RtpConfig{}.floor_price);
  // Diurnal structure survives every seed: evening mean above night mean.
  double evening = 0, night = 0;
  std::size_t ne = 0, nn = 0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double h = grid.hour_of_day(t);
    if (h >= 19 && h <= 21) {
      evening += a[t];
      ++ne;
    }
    if (h >= 3 && h <= 5) {
      night += a[t];
      ++nn;
    }
  }
  EXPECT_GT(evening / static_cast<double>(ne), night / static_cast<double>(nn));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtpSeedSweep, ::testing::Values(1u, 17u, 123u, 9999u));

// ---------------------------------------------------------------- selling

TEST(DiscountSchedule, DefaultsToZero) {
  const DiscountSchedule s(10);
  ASSERT_EQ(s.size(), 10u);
  for (std::size_t t = 0; t < 10; ++t) EXPECT_DOUBLE_EQ(s.at(t), 0.0);
}

TEST(DiscountSchedule, FromFlags) {
  const std::vector<bool> flags = {true, false, true};
  const auto s = DiscountSchedule::from_flags(flags, 0.25);
  EXPECT_DOUBLE_EQ(s.at(0), 0.25);
  EXPECT_DOUBLE_EQ(s.at(1), 0.0);
  EXPECT_DOUBLE_EQ(s.at(2), 0.25);
}

TEST(DiscountSchedule, RejectsBadFraction) {
  EXPECT_THROW(DiscountSchedule::from_flags({true}, 1.0), std::invalid_argument);
  DiscountSchedule s(3);
  EXPECT_THROW(s.set(0, -0.1), std::invalid_argument);
  EXPECT_THROW(s.set(5, 0.1), std::out_of_range);
}

TEST(SellingPricePolicy, AppliesMarkupAndDiscount) {
  DiscountSchedule sched(2);
  sched.set(1, 0.5);
  SellingConfig cfg;
  cfg.markup = 2.0;
  cfg.floor = 0.0;
  const SellingPricePolicy policy(cfg, sched);
  EXPECT_DOUBLE_EQ(policy.srtp(0, 100.0), 200.0);
  EXPECT_DOUBLE_EQ(policy.srtp(1, 100.0), 100.0);
}

TEST(SellingPricePolicy, EnforcesFloor) {
  DiscountSchedule sched(1);
  SellingConfig cfg;
  cfg.markup = 1.0;
  cfg.floor = 30.0;
  const SellingPricePolicy policy(cfg, sched);
  EXPECT_DOUBLE_EQ(policy.srtp(0, 10.0), 30.0);
}

TEST(SellingPricePolicy, SeriesMatchesPerSlot) {
  DiscountSchedule sched(3);
  sched.set(2, 0.2);
  const SellingPricePolicy policy(SellingConfig{}, sched);
  const std::vector<double> rtp = {50.0, 60.0, 70.0};
  std::vector<double> series;
  policy.series_into(rtp, series);
  ASSERT_EQ(series.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) EXPECT_DOUBLE_EQ(series[t], policy.srtp(t, rtp[t]));
}

TEST(SellingPricePolicy, SeriesLengthMismatchThrows) {
  const SellingPricePolicy policy(SellingConfig{}, DiscountSchedule(3));
  std::vector<double> series;
  EXPECT_THROW(policy.series_into({1.0}, series), std::invalid_argument);
}

TEST(SellingPricePolicy, SeriesIntoMatchesSeriesAndReusesBuffers) {
  DiscountSchedule schedule(4);
  schedule.set(2, 0.2);
  const SellingPricePolicy policy(SellingConfig{}, schedule);
  const std::vector<double> rtp = {40.0, 80.0, 120.0, 60.0};
  std::vector<double> fresh;
  policy.series_into(rtp, fresh);
  for (std::size_t t = 0; t < rtp.size(); ++t) EXPECT_EQ(fresh[t], policy.srtp(t, rtp[t]));

  // A stale buffer of another length is overwritten whole.
  std::vector<double> reused(9, -1.0);
  policy.series_into(rtp, reused);
  EXPECT_EQ(reused, fresh);

  const double* buf = reused.data();
  policy.series_into(rtp, reused);
  EXPECT_EQ(reused.data(), buf);
  EXPECT_EQ(reused, fresh);
  EXPECT_THROW(policy.series_into({1.0}, reused), std::invalid_argument);
}

TEST(SellingPricePolicy, UndiscountedSellAboveBuy) {
  // Economic sanity: with the default markup, selling undiscounted energy is
  // profitable per-unit at any grid price.
  const SellingPricePolicy policy(SellingConfig{}, DiscountSchedule(1));
  for (double rtp : {20.0, 60.0, 140.0}) EXPECT_GT(policy.srtp(0, rtp), rtp);
}

// The series is the diurnal curve evaluated slot by slot plus the noise and
// spikes drawn in slot order: replaying the draws from an identically seeded
// Rng checks that the curve computed once per slot of the day and reused
// across days holds exactly those bits, at any grid resolution.
TEST(RtpGenerator, SeriesReplaysThePerSlotExpression) {
  const RtpConfig cfg;
  for (const std::size_t spd : {24u, 96u, 7u}) {
    const TimeGrid grid(9, spd);
    Rng load_rng(3);
    std::vector<double> load(grid.size());
    for (double& x : load) x = load_rng.uniform(0.0, 1.0);
    for (const bool coupled : {false, true}) {
      RtpGenerator gen(cfg, Rng(5));
      std::vector<double> price;
      gen.generate_into(grid, coupled ? load : std::vector<double>{}, price);
      ASSERT_EQ(price.size(), grid.size());
      Rng draws(5);
      double ar = 0.0;
      for (std::size_t t = 0; t < grid.size(); ++t) {
        ar = cfg.noise_persistence * ar + draws.normal(0.0, cfg.noise_sigma);
        double p = cfg.base_price + gen.diurnal_component(grid.hour_of_day(t)) + ar;
        if (coupled) p += cfg.load_coupling * load[t];
        if (draws.bernoulli(cfg.spike_prob)) p += draws.exponential(1.0 / cfg.spike_scale);
        EXPECT_EQ(price[t], std::max(p, cfg.floor_price)) << spd << " " << coupled << " " << t;
      }
    }
  }
}

}  // namespace
}  // namespace ecthub::pricing
