// Battery degradation & terminal-voltage surrogate (paper Fig. 4).
//
// The paper uses long-horizon voltage telemetry to argue that backup
// batteries self-degrade even when unused; we reproduce that with a simple
// electro-chemical surrogate: an open-circuit-voltage (OCV) curve over SoC
// plus calendar fade (time) and cycle fade (energy throughput) acting on the
// usable capacity and on the per-cell voltage plateau.
#pragma once

#include <cstddef>
#include <vector>

namespace ecthub::battery {

struct DegradationConfig {
  double nominal_cell_voltage = 2.23;   ///< VRLA float voltage per cell, V
  double calendar_fade_per_day = 2e-4;  ///< fractional capacity loss per day
  double cycle_fade_per_kwh = 5e-5;     ///< fractional loss per kWh throughput
  double voltage_per_fade = 0.55;       ///< V dropped per unit capacity fade
  std::size_t cells_in_group = 24;      ///< cells in a series group (48 V class)
};

/// Tracks capacity fade and reports cell / group voltage.
class DegradationModel {
 public:
  explicit DegradationModel(DegradationConfig cfg);

  /// Advances calendar time by `days` and records `throughput_kwh` of cycling.
  void advance(double days, double throughput_kwh);

  /// Remaining capacity as a fraction of nameplate, in (0, 1].
  [[nodiscard]] double capacity_fraction() const noexcept;

  /// Per-cell float voltage after fade, V.
  [[nodiscard]] double cell_voltage() const noexcept;

  /// Simulates `days` of pure calendar ageing (plus optional daily cycling
  /// throughput) and returns the daily cell-voltage series — the Fig. 4 curve.
  [[nodiscard]] static std::vector<double> voltage_trajectory(
      const DegradationConfig& cfg, std::size_t days, double daily_throughput_kwh = 0.0);

  [[nodiscard]] const DegradationConfig& config() const noexcept { return cfg_; }

 private:
  DegradationConfig cfg_;
  double fade_ = 0.0;  // cumulative fractional capacity loss
};

}  // namespace ecthub::battery
