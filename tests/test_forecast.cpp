// Tests for the forecasting module and its scheduler integration.
#include "forecast/predictors.hpp"
#include "pricing/rtp.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
  const auto rtp = gen.generate(grid);

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

}  // namespace
}  // namespace ecthub::forecast
