#include "weather/weather.hpp"

#include "common/elementary.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::weather {

void WeatherConfig::validate() const {
  solar.validate();
  wind.validate();
  for (const double x : {mean_temperature_c, diurnal_temp_swing_c, temp_noise_sigma}) {
    if (!std::isfinite(x)) throw std::invalid_argument("WeatherConfig: non-finite field");
  }
  if (!(temp_noise_sigma >= 0.0)) {
    throw std::invalid_argument("WeatherConfig: temp_noise_sigma < 0");
  }
}

WeatherGenerator::WeatherGenerator(WeatherConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) {
  cfg_.validate();
}

void WeatherGenerator::generate_into(const TimeGrid& grid, WeatherSeries& series) {
  SolarModel solar(cfg_.solar, rng_.fork());
  WindModel wind(cfg_.wind, rng_.fork());
  solar.generate_into(grid, series.ghi_wm2);
  wind.generate_into(grid, series.wind_speed_ms);
  series.temperature_c.resize(grid.size());
  // Temperature lags solar noon by ~2h; peak mid-afternoon.  The diurnal
  // term depends only on the hour of day: evaluated once per slot of the
  // day, then read back and overwritten slot by slot below.
  fill_by_slot_of_day(grid, series.temperature_c, [](double hour) {
    return elementary::sin(2.0 * std::numbers::pi * (hour - 8.0) / 24.0);
  });
  Rng temp_rng = rng_.fork();
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double diurnal = series.temperature_c[t];
    series.temperature_c[t] = cfg_.mean_temperature_c +
                              0.5 * cfg_.diurnal_temp_swing_c * diurnal +
                              temp_rng.normal(0.0, cfg_.temp_noise_sigma);
  }
}

}  // namespace ecthub::weather
