// Tests for the weather substrate (NSRDB substitute).
#include "common/elementary.hpp"
#include "common/stats.hpp"
#include "weather/solar.hpp"
#include "weather/weather.hpp"
#include "weather/wind.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace ecthub::weather {
namespace {

// ---------------------------------------------------------------- solar

TEST(ClearSky, ZeroAtNight) {
  SolarConfig cfg;
  EXPECT_DOUBLE_EQ(clear_sky_ghi(cfg, 172, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(clear_sky_ghi(cfg, 172, 23.0), 0.0);
}

TEST(ClearSky, PeaksAtNoon) {
  SolarConfig cfg;
  const double noon = clear_sky_ghi(cfg, 172, 12.0);
  EXPECT_GT(noon, clear_sky_ghi(cfg, 172, 9.0));
  EXPECT_GT(noon, clear_sky_ghi(cfg, 172, 15.0));
  EXPECT_GT(noon, 0.8 * cfg.peak_ghi);
}

TEST(ClearSky, SummerBrighterThanWinter) {
  SolarConfig cfg;
  // Day 172 = summer solstice, day 355 = winter solstice.
  EXPECT_GT(clear_sky_ghi(cfg, 172, 12.0), clear_sky_ghi(cfg, 355, 12.0));
}

TEST(ClearSky, WinterDaysAreShorter) {
  SolarConfig cfg;
  cfg.season_daylength_swing_h = 4.0;
  // 6 am is daylight in summer but dark in winter at this swing
  // (summer sunrise = 5h, winter sunrise = ~7h).
  EXPECT_GT(clear_sky_ghi(cfg, 172, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(clear_sky_ghi(cfg, 355, 6.0), 0.0);
}

TEST(SolarModel, SeriesNonNegativeAndBounded) {
  SolarModel model(SolarConfig{}, Rng(1));
  const TimeGrid grid(10, 24);
  std::vector<double> ghi;
  model.generate_into(grid, ghi);
  ASSERT_EQ(ghi.size(), grid.size());
  for (double g : ghi) {
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1200.0);
  }
}

TEST(SolarModel, NightSlotsAreZero) {
  SolarModel model(SolarConfig{}, Rng(2));
  const TimeGrid grid(5, 24);
  std::vector<double> ghi;
  model.generate_into(grid, ghi);
  for (std::size_t t = 0; t < grid.size(); ++t) {
    if (grid.hour_of_day(t) < 4.0 || grid.hour_of_day(t) > 21.0) {
      EXPECT_DOUBLE_EQ(ghi[t], 0.0) << "slot " << t;
    }
  }
}

TEST(SolarModel, CloudsReduceEnergyVsClearSky) {
  SolarConfig cloudy_cfg;
  cloudy_cfg.cloud_switch_prob = 0.0;  // never leaves its initial state...
  // Start states are random; instead compare a heavy-cloud config's mean
  // against the clear-sky integral.
  SolarConfig cfg;
  cfg.cloudy_transmittance = 0.2;
  cfg.cloud_switch_prob = 0.05;
  SolarModel model(cfg, Rng(3));
  const TimeGrid grid(30, 24);
  std::vector<double> ghi;
  model.generate_into(grid, ghi);
  double clear_total = 0.0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    clear_total += clear_sky_ghi(cfg, (cfg.start_day_of_year + grid.day_of(t)) % 365,
                                 grid.hour_of_day(t));
  }
  EXPECT_LT(stats::sum(ghi), clear_total);
}

TEST(SolarModel, RejectsBadConfig) {
  SolarConfig bad;
  bad.peak_ghi = 0.0;
  EXPECT_THROW(SolarModel(bad, Rng(1)), std::invalid_argument);
  SolarConfig bad2;
  bad2.cloud_switch_prob = 1.5;
  EXPECT_THROW(SolarModel(bad2, Rng(1)), std::invalid_argument);
  SolarConfig sigma;
  sigma.transmittance_sigma = -0.1;
  EXPECT_THROW(SolarModel(sigma, Rng(1)), std::invalid_argument);
  sigma.transmittance_sigma = 0.0;  // a fixed cloudy transmittance is valid
  EXPECT_NO_THROW(SolarModel(sigma, Rng(1)));
}

// ---------------------------------------------------------------- wind

TEST(WindModel, SpeedsWithinPhysicalBounds) {
  WindModel model(WindConfig{}, Rng(4));
  const TimeGrid grid(30, 24);
  std::vector<double> speed;
  model.generate_into(grid, speed);
  for (double v : speed) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, WindConfig{}.max_speed_ms);
  }
}

TEST(WindModel, MeanRevertsToConfiguredSpeed) {
  WindConfig cfg;
  cfg.mean_speed_ms = 7.0;
  WindModel model(cfg, Rng(5));
  const TimeGrid grid(120, 24);
  std::vector<double> speed;
  model.generate_into(grid, speed);
  EXPECT_NEAR(stats::mean(speed), 7.0, 1.2);
}

TEST(WindModel, IsVolatile) {
  // The paper stresses renewable volatility; wind stddev must be material.
  WindModel model(WindConfig{}, Rng(6));
  const TimeGrid grid(60, 24);
  std::vector<double> speed;
  model.generate_into(grid, speed);
  EXPECT_GT(stats::stddev(speed), 1.0);
}

TEST(WindModel, PersistentAcrossSlots) {
  WindModel model(WindConfig{}, Rng(7));
  const TimeGrid grid(60, 24);
  std::vector<double> speed;
  model.generate_into(grid, speed);
  EXPECT_GT(stats::autocorrelation(speed, 1), 0.5);
}

TEST(WindModel, RejectsBadConfig) {
  WindConfig bad;
  bad.reversion_rate = 0.0;
  EXPECT_THROW(WindModel(bad, Rng(1)), std::invalid_argument);
  WindConfig bad2;
  bad2.volatility = -1.0;
  EXPECT_THROW(WindModel(bad2, Rng(1)), std::invalid_argument);
}

// ---------------------------------------------------------------- combined

TEST(WeatherGenerator, AllChannelsShareGridLength) {
  WeatherGenerator gen(WeatherConfig{}, Rng(8));
  const TimeGrid grid(14, 24);
  WeatherSeries wx;
  gen.generate_into(grid, wx);
  EXPECT_EQ(wx.ghi_wm2.size(), grid.size());
  EXPECT_EQ(wx.wind_speed_ms.size(), grid.size());
  EXPECT_EQ(wx.temperature_c.size(), grid.size());
  EXPECT_EQ(wx.size(), grid.size());
}

TEST(WeatherGenerator, RejectsNegativeTemperatureSigmaAndTakesZero) {
  WeatherConfig cfg;
  cfg.temp_noise_sigma = -1.0;
  EXPECT_THROW(WeatherGenerator(cfg, Rng(1)), std::invalid_argument);
  cfg.temp_noise_sigma = 0.0;
  EXPECT_NO_THROW(WeatherGenerator(cfg, Rng(1)));
}

TEST(WeatherGenerator, DeterministicGivenSeed) {
  const TimeGrid grid(7, 24);
  WeatherSeries a;
  WeatherGenerator(WeatherConfig{}, Rng(9)).generate_into(grid, a);
  WeatherSeries b;
  WeatherGenerator(WeatherConfig{}, Rng(9)).generate_into(grid, b);
  EXPECT_EQ(a.ghi_wm2, b.ghi_wm2);
  EXPECT_EQ(a.wind_speed_ms, b.wind_speed_ms);
  EXPECT_EQ(a.temperature_c, b.temperature_c);
}

TEST(WeatherGenerator, TemperatureOscillatesAroundMean) {
  WeatherConfig cfg;
  cfg.mean_temperature_c = 20.0;
  WeatherGenerator gen(cfg, Rng(10));
  const TimeGrid grid(60, 24);
  WeatherSeries wx;
  gen.generate_into(grid, wx);
  EXPECT_NEAR(stats::mean(wx.temperature_c), 20.0, 1.0);
  EXPECT_GT(stats::stddev(wx.temperature_c), 1.0);
}

TEST(WeatherGenerator, AfternoonWarmerThanNight) {
  WeatherConfig cfg;
  cfg.temp_noise_sigma = 0.0;
  WeatherGenerator gen(cfg, Rng(11));
  const TimeGrid grid(10, 24);
  WeatherSeries wx;
  gen.generate_into(grid, wx);
  double afternoon = 0, night = 0;
  std::size_t na = 0, nn = 0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double h = grid.hour_of_day(t);
    if (h >= 13 && h <= 16) {
      afternoon += wx.temperature_c[t];
      ++na;
    }
    if (h >= 1 && h <= 4) {
      night += wx.temperature_c[t];
      ++nn;
    }
  }
  EXPECT_GT(afternoon / static_cast<double>(na), night / static_cast<double>(nn));
}

// ------------------------------------------------- allocation-free variants

TEST(SolarModel, GenerateIntoMatchesGenerateAndReusesBuffers) {
  const TimeGrid grid(3, 24);
  std::vector<double> fresh;
  SolarModel(SolarConfig{}, Rng(51)).generate_into(grid, fresh);

  SolarModel model(SolarConfig{}, Rng(51));
  // A stale buffer of another length is overwritten whole.
  std::vector<double> reused(7, -1.0);
  model.generate_into(grid, reused);
  EXPECT_EQ(reused, fresh);

  // A second pass must reuse the buffer (no realloc) and draw a fresh
  // stochastic stream, not replay the first.
  const double* buf = reused.data();
  const double first_sum = stats::sum(reused);
  model.generate_into(grid, reused);
  EXPECT_EQ(reused.data(), buf);
  EXPECT_EQ(reused.size(), grid.size());
  EXPECT_NE(stats::sum(reused), first_sum);
}

TEST(WindModel, GenerateIntoMatchesGenerateAndReusesBuffers) {
  const TimeGrid grid(3, 24);
  std::vector<double> fresh;
  WindModel(WindConfig{}, Rng(52)).generate_into(grid, fresh);

  WindModel model(WindConfig{}, Rng(52));
  // A stale buffer of another length is overwritten whole.
  std::vector<double> reused(7, -1.0);
  model.generate_into(grid, reused);
  EXPECT_EQ(reused, fresh);

  const double* buf = reused.data();
  const double first_sum = stats::sum(reused);
  model.generate_into(grid, reused);
  EXPECT_EQ(reused.data(), buf);
  EXPECT_NE(stats::sum(reused), first_sum);
}

TEST(WeatherGenerator, GenerateIntoMatchesGenerateAndReusesBuffers) {
  const TimeGrid grid(3, 24);
  WeatherSeries fresh;
  WeatherGenerator(WeatherConfig{}, Rng(53)).generate_into(grid, fresh);

  WeatherGenerator gen(WeatherConfig{}, Rng(53));
  // Stale channels of another length are overwritten whole.
  WeatherSeries reused;
  reused.ghi_wm2.assign(7, -1.0);
  reused.wind_speed_ms.assign(7, -1.0);
  reused.temperature_c.assign(7, -1.0);
  gen.generate_into(grid, reused);
  EXPECT_EQ(reused.ghi_wm2, fresh.ghi_wm2);
  EXPECT_EQ(reused.wind_speed_ms, fresh.wind_speed_ms);
  EXPECT_EQ(reused.temperature_c, fresh.temperature_c);

  const double* ghi_buf = reused.ghi_wm2.data();
  const double* wind_buf = reused.wind_speed_ms.data();
  const double* temp_buf = reused.temperature_c.data();
  gen.generate_into(grid, reused);
  EXPECT_EQ(reused.ghi_wm2.data(), ghi_buf);
  EXPECT_EQ(reused.wind_speed_ms.data(), wind_buf);
  EXPECT_EQ(reused.temperature_c.data(), temp_buf);
  EXPECT_EQ(reused.size(), grid.size());
  EXPECT_NE(reused.wind_speed_ms, fresh.wind_speed_ms);
}

// Wind speed and temperature are their diurnal curves evaluated slot by slot
// combined with noise drawn in slot order: replaying the draws from an
// identically seeded Rng checks that the curves computed once per slot of
// the day and reused across days hold exactly those bits.
TEST(WindModel, SeriesReplaysThePerSlotExpression) {
  const WindConfig cfg;
  const TimeGrid grid(9, 24);
  WindModel model(cfg, Rng(4));
  std::vector<double> speed;
  model.generate_into(grid, speed);
  ASSERT_EQ(speed.size(), grid.size());
  Rng draws(4);
  double x = cfg.mean_speed_ms;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double diurnal =
        1.0 + cfg.diurnal_amplitude *
                  elementary::sin(2.0 * std::numbers::pi * (grid.hour_of_day(t) - 9.0) / 24.0);
    x += cfg.reversion_rate * (cfg.mean_speed_ms - x) + draws.normal(0.0, cfg.volatility);
    x = std::clamp(x, 0.0, cfg.max_speed_ms);
    EXPECT_EQ(speed[t], std::clamp(x * diurnal, 0.0, cfg.max_speed_ms)) << t;
  }
}

TEST(WeatherGenerator, TemperatureReplaysThePerSlotExpression) {
  const WeatherConfig cfg;
  const TimeGrid grid(9, 24);
  WeatherGenerator gen(cfg, Rng(6));
  WeatherSeries wx;
  gen.generate_into(grid, wx);
  ASSERT_EQ(wx.temperature_c.size(), grid.size());
  // The generator forks solar's stream, then wind's, then temperature's.
  Rng parent(6);
  (void)parent.fork();
  (void)parent.fork();
  Rng draws = parent.fork();
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double diurnal =
        elementary::sin(2.0 * std::numbers::pi * (grid.hour_of_day(t) - 8.0) / 24.0);
    EXPECT_EQ(wx.temperature_c[t], cfg.mean_temperature_c +
                                       0.5 * cfg.diurnal_temp_swing_c * diurnal +
                                       draws.normal(0.0, cfg.temp_noise_sigma))
        << t;
  }
}

}  // namespace
}  // namespace ecthub::weather
