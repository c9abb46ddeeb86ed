// Tests for the forecasting module and its scheduler integration.
#include "common/rng.hpp"
#include "forecast/predictors.hpp"
#include "pricing/rtp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace ecthub::forecast {
namespace {

TEST(SeasonalNaive, LearnsPerfectlyPeriodicSignal) {
  SeasonalNaivePredictor p(24, 0.5);
  auto signal = [](std::size_t t) { return 50.0 + 30.0 * ((t % 24) >= 12 ? 1.0 : 0.0); };
  for (std::size_t t = 0; t < 24 * 20; ++t) p.observe(t, signal(t));
  for (std::size_t t = 24 * 20; t < 24 * 21; ++t) {
    EXPECT_NEAR(p.predict(t), signal(t), 1e-6);
  }
}

TEST(SeasonalNaive, FallsBackToGlobalMeanBeforeSeen) {
  SeasonalNaivePredictor p(24);
  p.observe(0, 100.0);
  // Slot 5 never seen: prediction falls back to the global mean (100).
  EXPECT_DOUBLE_EQ(p.predict(5), 100.0);
}

TEST(SeasonalNaive, BeatsRunningMeanOnDiurnalPrices) {
  // The claim behind the scheduler: a seasonal model predicts diurnal RTP
  // far better than a level-only forecast.
  pricing::RtpGenerator gen(pricing::RtpConfig{}, Rng(1));
  const TimeGrid grid(60, 24);
  std::vector<double> rtp;
  gen.generate_into(grid, {}, rtp);

  SeasonalNaivePredictor seasonal(24, 0.2);
  const double seasonal_mae = replay_mae_seasonal(seasonal, rtp);

  // Running-mean replay: predict-then-observe, scored on the same slots.
  double mean = 0.0;
  double mean_err = 0.0;
  std::size_t scored = 0;
  for (std::size_t t = 0; t < rtp.size(); ++t) {
    if (t >= 24) {
      mean_err += std::abs(mean - rtp[t]);
      ++scored;
    }
    mean += (rtp[t] - mean) / static_cast<double>(t + 1);
  }
  const double mean_mae = mean_err / static_cast<double>(scored);
  EXPECT_LT(seasonal_mae, 0.8 * mean_mae);
}

TEST(SeasonalNaive, Validation) {
  EXPECT_THROW(SeasonalNaivePredictor(0), std::invalid_argument);
  EXPECT_THROW(SeasonalNaivePredictor(24, 0.0), std::invalid_argument);
}

// season_range() must return exactly the bits of the per-slot predict() loop
// it replaces (std::min / std::max in slot order), from the first observation
// on, while some slots still fall back to the global mean.
TEST(SeasonalNaive, SeasonRangeMatchesThePerSlotPredictLoop) {
  for (const std::size_t period : {24u, 7u, 1u}) {
    SeasonalNaivePredictor p(period);
    Rng rng(period);
    const auto check = [&](std::size_t step) {
      double lo = p.predict(0), hi = lo;
      for (std::size_t s = 1; s < period; ++s) {
        lo = std::min(lo, p.predict(s));
        hi = std::max(hi, p.predict(s));
      }
      const SeasonalNaivePredictor::Range r = p.season_range();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.lo), std::bit_cast<std::uint64_t>(lo))
          << period << " " << step;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.hi), std::bit_cast<std::uint64_t>(hi))
          << period << " " << step;
    };
    check(0);  // nothing seen: every slot is the global mean
    for (std::size_t step = 0; step < 2000; ++step) {
      // Random slot indices (unseen slots linger), repeats, signed zeros.
      const std::size_t t = static_cast<std::size_t>(rng.uniform_int(0, 200));
      double v = rng.normal(40.0, 30.0);
      if (step % 5 == 0) v = static_cast<double>(rng.uniform_int(-2, 2));
      if (step % 11 == 0) v = -0.0;
      p.observe(t, v);
      check(step + 1);
    }
  }
}

}  // namespace
}  // namespace ecthub::forecast
