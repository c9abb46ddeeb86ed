// Wind-speed model — the NSRDB substitute for the wind channel.
//
// Wind speed is generated by an Ornstein-Uhlenbeck (mean-reverting) process
// whose stationary spread is tuned so the marginal resembles the Weibull
// distributions reported for onshore sites, plus a mild diurnal modulation
// (wind tends to pick up in the afternoon).  The volatility is the feature
// that matters downstream: the paper stresses renewable generation "has great
// volatility and is hard to predict in advance".
#pragma once

#include "common/rng.hpp"
#include "common/time_grid.hpp"

#include <vector>

namespace ecthub::weather {

struct WindConfig {
  double mean_speed_ms = 7.0;      ///< long-run mean wind speed, m/s
  double reversion_rate = 0.25;    ///< OU mean-reversion per slot
  double volatility = 1.4;         ///< OU innovation scale, m/s
  double diurnal_amplitude = 0.15; ///< fractional afternoon boost
  double max_speed_ms = 35.0;      ///< physical clamp

  /// Throws std::invalid_argument on a non-finite field or a range error.
  void validate() const;
};

class WindModel {
 public:
  WindModel(WindConfig cfg, Rng rng);

  /// Writes the wind-speed series (m/s) over `grid` into `out_speed_ms`,
  /// reusing its capacity.
  void generate_into(const TimeGrid& grid, std::vector<double>& out_speed_ms);

  [[nodiscard]] const WindConfig& config() const noexcept { return cfg_; }

 private:
  WindConfig cfg_;
  Rng rng_;
};

}  // namespace ecthub::weather
