#include "weather/wind.hpp"

#include "common/elementary.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::weather {

void WindConfig::validate() const {
  // Written so that NaN fails every check, and every field must be finite.
  for (const double x : {mean_speed_ms, volatility, diurnal_amplitude, max_speed_ms}) {
    if (!std::isfinite(x)) throw std::invalid_argument("WindConfig: non-finite field");
  }
  if (!(mean_speed_ms >= 0.0)) throw std::invalid_argument("WindConfig: mean_speed_ms < 0");
  if (!(reversion_rate > 0.0 && reversion_rate < 1.0)) {
    throw std::invalid_argument("WindConfig: reversion_rate must be in (0, 1)");
  }
  if (!(volatility >= 0.0)) throw std::invalid_argument("WindConfig: volatility < 0");
}

WindModel::WindModel(WindConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) { cfg_.validate(); }

void WindModel::generate_into(const TimeGrid& grid, std::vector<double>& out_speed) {
  out_speed.resize(grid.size());
  // The diurnal factor depends only on the hour of day: evaluated once per
  // slot of the day, then read back and overwritten slot by slot below.
  fill_by_slot_of_day(grid, out_speed, [this](double hour) {
    return 1.0 + cfg_.diurnal_amplitude *
                     elementary::sin(2.0 * std::numbers::pi * (hour - 9.0) / 24.0);
  });
  double x = cfg_.mean_speed_ms;  // OU state
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double diurnal = out_speed[t];
    x += cfg_.reversion_rate * (cfg_.mean_speed_ms - x) +
         rng_.normal(0.0, cfg_.volatility);
    x = std::clamp(x, 0.0, cfg_.max_speed_ms);
    out_speed[t] = std::clamp(x * diurnal, 0.0, cfg_.max_speed_ms);
  }
}

}  // namespace ecthub::weather
