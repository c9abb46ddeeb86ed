// Solar irradiance model — the NSRDB substitute.
//
// The paper feeds NSRDB solar-radiation data to the PV plant model; offline we
// synthesize global horizontal irradiance (GHI) with the two features the
// downstream models rely on: a deterministic diurnal/seasonal clear-sky
// envelope and stochastic cloud attenuation that makes generation volatile
// and hard to predict (paper Fig. 2).
#pragma once

#include "common/elementary.hpp"
#include "common/rng.hpp"
#include "common/time_grid.hpp"

#include <numbers>
#include <vector>

namespace ecthub::weather {

struct SolarConfig {
  /// Peak clear-sky GHI at solar noon on the summer solstice, W/m^2.
  double peak_ghi = 1000.0;
  /// Site latitude proxy: seasonal swing of day length in hours (0 = equator).
  double season_daylength_swing_h = 3.0;
  /// Mean day length, hours.
  double mean_daylength_h = 12.0;
  /// Cloud process: probability per slot of switching between clear/cloudy.
  double cloud_switch_prob = 0.08;
  /// Mean transmittance when cloudy (fraction of clear-sky GHI).
  double cloudy_transmittance = 0.35;
  /// Jitter of the transmittance around its mean.
  double transmittance_sigma = 0.10;
  /// Day-of-year the horizon starts at (0..364); controls the season.
  std::size_t start_day_of_year = 172;  // summer solstice by default

  /// Throws std::invalid_argument on a non-finite field or a range error.
  void validate() const;
};

/// The clear-sky curve of one day of the year: its day length, sunrise,
/// sunset and seasonal peak, computed once for every hour the day is read at.
struct ClearSkyDay {
  ClearSkyDay(const SolarConfig& cfg, std::size_t day_of_year);

  /// Clear-sky GHI (W/m^2) at `hour_of_day`: zero outside daylight, a
  /// half-sine inside.
  [[nodiscard]] double at(double hour_of_day) const {
    if (hour_of_day <= sunrise || hour_of_day >= sunset) return 0.0;
    const double x = (hour_of_day - sunrise) / daylength;  // in (0, 1)
    return seasonal_peak * elementary::sin(std::numbers::pi * x);
  }

  double daylength = 0.0;      ///< hours
  double sunrise = 0.0;        ///< hour of day
  double sunset = 0.0;         ///< hour of day
  double seasonal_peak = 0.0;  ///< W/m^2 at solar noon
};

/// Clear-sky GHI (W/m^2) at a given hour of day for a given day of year:
/// ClearSkyDay(cfg, day_of_year).at(hour_of_day).
[[nodiscard]] double clear_sky_ghi(const SolarConfig& cfg, std::size_t day_of_year,
                                   double hour_of_day);

/// Generates a GHI series over `grid` with a two-state (clear/cloudy) Markov
/// cloud process modulating the clear-sky envelope.
class SolarModel {
 public:
  SolarModel(SolarConfig cfg, Rng rng);

  /// Writes the GHI series (W/m^2) over `grid` into `out_ghi_wm2`, reusing
  /// its capacity, so EctHubEnv regenerates episodes without touching the
  /// heap.
  void generate_into(const TimeGrid& grid, std::vector<double>& out_ghi_wm2);

  [[nodiscard]] const SolarConfig& config() const noexcept { return cfg_; }

 private:
  SolarConfig cfg_;
  Rng rng_;
};

}  // namespace ecthub::weather
