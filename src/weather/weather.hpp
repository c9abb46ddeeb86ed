// Combined weather series consumed by the renewable plant models and the
// DRL state vector (paper Eq. 24's "weather" component).
#pragma once

#include "common/rng.hpp"
#include "common/time_grid.hpp"
#include "weather/solar.hpp"
#include "weather/wind.hpp"

#include <vector>

namespace ecthub::weather {

/// Per-slot weather observations.
struct WeatherSeries {
  std::vector<double> ghi_wm2;        ///< global horizontal irradiance, W/m^2
  std::vector<double> wind_speed_ms;  ///< wind speed at hub height, m/s
  std::vector<double> temperature_c;  ///< ambient temperature, deg C

  [[nodiscard]] std::size_t size() const noexcept { return ghi_wm2.size(); }
};

struct WeatherConfig {
  SolarConfig solar;
  WindConfig wind;
  double mean_temperature_c = 18.0;
  double diurnal_temp_swing_c = 8.0;
  double temp_noise_sigma = 1.0;

  /// Validates solar and wind, and requires the temperature fields finite
  /// and temp_noise_sigma >= 0.
  void validate() const;
};

/// Generates consistent solar / wind / temperature series on one grid.
class WeatherGenerator {
 public:
  WeatherGenerator(WeatherConfig cfg, Rng rng);

  /// Regenerates `series` over `grid` in place, reusing the capacity of its
  /// three channels.  Forks the solar, wind and temperature streams in that
  /// order.
  void generate_into(const TimeGrid& grid, WeatherSeries& series);

  [[nodiscard]] const WeatherConfig& config() const noexcept { return cfg_; }

 private:
  WeatherConfig cfg_;
  Rng rng_;
};

}  // namespace ecthub::weather
