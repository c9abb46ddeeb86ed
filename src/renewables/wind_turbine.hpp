// Small wind-turbine model (paper's P_WT(t)).
//
// Standard piecewise power curve: zero below cut-in, cubic ramp between
// cut-in and rated speed, flat at rated power, zero above cut-out.
#pragma once

namespace ecthub::renewables {

struct WindTurbineConfig {
  double cut_in_ms = 3.0;
  double rated_speed_ms = 11.0;
  double cut_out_ms = 25.0;
  double rated_power_w = 10000.0;

  /// Throws std::invalid_argument unless 0 < cut_in < rated_speed < cut_out
  /// and rated_power_w > 0, all finite.
  void validate() const;
};

class WindTurbine {
 public:
  explicit WindTurbine(WindTurbineConfig cfg);

  [[nodiscard]] double power_w(double wind_speed_ms) const;

  [[nodiscard]] const WindTurbineConfig& config() const noexcept { return cfg_; }

 private:
  WindTurbineConfig cfg_;
  double cut_in_cubed_;  ///< cut_in_ms^3
  double cubic_span_;    ///< rated_speed_ms^3 - cut_in_ms^3
};

}  // namespace ecthub::renewables
