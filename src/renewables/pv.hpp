// Photovoltaic array model (paper's P_PV(t)).
//
// Power = irradiance * area * efficiency, derated linearly with cell
// temperature above 25 C — the standard single-diode-free engineering
// approximation, adequate because the paper only consumes the plant's power
// series, not module-level electrical detail.
#pragma once

namespace ecthub::renewables {

struct PvConfig {
  double area_m2 = 40.0;            ///< total panel area
  double efficiency = 0.21;         ///< STC conversion efficiency
  double temp_coeff_per_c = 0.004;  ///< fractional derating per deg C above 25
  double inverter_efficiency = 0.97;
  double rated_power_w = 8000.0;    ///< inverter clipping limit

  /// Throws std::invalid_argument on a non-finite field or a range error.
  void validate() const;
};

class PvArray {
 public:
  explicit PvArray(PvConfig cfg);

  /// AC power (W) for one slot's weather.
  [[nodiscard]] double power_w(double ghi_wm2, double ambient_temp_c) const;

  [[nodiscard]] const PvConfig& config() const noexcept { return cfg_; }

 private:
  PvConfig cfg_;
};

}  // namespace ecthub::renewables
