#include "weather/solar.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::weather {

ClearSkyDay::ClearSkyDay(const SolarConfig& cfg, std::size_t day_of_year) {
  // Day length varies sinusoidally over the year around the mean; peak GHI
  // scales with relative day length as a season proxy.
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>((day_of_year + 365 - 172) % 365) / 365.0;
  daylength = cfg.mean_daylength_h + 0.5 * cfg.season_daylength_swing_h * elementary::cos(phase);
  sunrise = 12.0 - daylength / 2.0;
  sunset = 12.0 + daylength / 2.0;
  seasonal_peak = cfg.peak_ghi * (daylength / (cfg.mean_daylength_h +
                                               0.5 * cfg.season_daylength_swing_h));
}

double clear_sky_ghi(const SolarConfig& cfg, std::size_t day_of_year, double hour_of_day) {
  return ClearSkyDay(cfg, day_of_year).at(hour_of_day);
}

void SolarConfig::validate() const {
  // Written so that NaN fails every check, and every field must be finite.
  for (const double x :
       {peak_ghi, season_daylength_swing_h, mean_daylength_h, transmittance_sigma}) {
    if (!std::isfinite(x)) throw std::invalid_argument("SolarConfig: non-finite field");
  }
  if (!(peak_ghi > 0.0)) throw std::invalid_argument("SolarConfig: peak_ghi must be > 0");
  if (!(transmittance_sigma >= 0.0)) {
    throw std::invalid_argument("SolarConfig: transmittance_sigma < 0");
  }
  if (!(cloud_switch_prob >= 0.0 && cloud_switch_prob <= 1.0)) {
    throw std::invalid_argument("SolarConfig: cloud_switch_prob out of [0, 1]");
  }
  if (!(cloudy_transmittance >= 0.0 && cloudy_transmittance <= 1.0)) {
    throw std::invalid_argument("SolarConfig: cloudy_transmittance out of [0, 1]");
  }
}

SolarModel::SolarModel(SolarConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) { cfg_.validate(); }

void SolarModel::generate_into(const TimeGrid& grid, std::vector<double>& out_ghi) {
  out_ghi.resize(grid.size());
  bool cloudy = rng_.bernoulli(0.5);
  const double slot_h = grid.slot_hours();
  std::size_t t = 0;
  for (std::size_t day = 0; day < grid.num_days(); ++day) {
    const ClearSkyDay sky(cfg_, (cfg_.start_day_of_year + day) % 365);
    for (std::size_t s = 0; s < grid.slots_per_day(); ++s, ++t) {
      if (rng_.bernoulli(cfg_.cloud_switch_prob)) cloudy = !cloudy;
      // TimeGrid::hour_of_day(t): the slot of the day times the slot length.
      const double clear = sky.at(static_cast<double>(s) * slot_h);
      double trans = 1.0;
      if (cloudy) {
        trans = std::clamp(
            cfg_.cloudy_transmittance + rng_.normal(0.0, cfg_.transmittance_sigma), 0.05, 1.0);
      } else {
        // Even "clear" slots see small high-cirrus variation.
        trans = std::clamp(1.0 - std::abs(rng_.normal(0.0, 0.03)), 0.8, 1.0);
      }
      out_ghi[t] = clear * trans;
    }
  }
}

}  // namespace ecthub::weather
