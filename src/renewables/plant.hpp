// Renewable plant: the PV + WT generation attached to one ECT-Hub.
//
// Urban hubs typically carry rooftop PV only; rural hubs carry both PV and a
// wind turbine (paper Fig. 6).  The plant produces the P_WT and P_PV series
// used in the grid balance (Eq. 7) and in Fig. 2.
#pragma once

#include "renewables/pv.hpp"
#include "renewables/wind_turbine.hpp"
#include "weather/weather.hpp"

#include <optional>
#include <vector>

namespace ecthub::renewables {

struct PlantConfig {
  std::optional<PvConfig> pv;           ///< absent = no PV installed
  std::optional<WindTurbineConfig> wt;  ///< absent = no turbine installed

  /// Rooftop-PV-only urban configuration.
  static PlantConfig urban();
  /// PV + wind rural configuration.
  static PlantConfig rural();
  /// No renewables (the prior-work baseline [7] setting).
  static PlantConfig none();

  /// Validates whichever of the PV and turbine configs is present.
  void validate() const;
};

/// Per-slot generation split used by Fig. 2 and the hub environment.
struct GenerationSeries {
  std::vector<double> pv_w;
  std::vector<double> wt_w;

  [[nodiscard]] std::size_t size() const noexcept { return pv_w.size(); }
};

class RenewablePlant {
 public:
  explicit RenewablePlant(PlantConfig cfg);

  /// Regenerates `out` from `wx` in place, reusing the capacity of its two
  /// channels; a channel whose generator is not installed reads zero.
  void generate_into(const weather::WeatherSeries& wx, GenerationSeries& out) const;

  [[nodiscard]] bool has_pv() const noexcept { return cfg_.pv.has_value(); }
  [[nodiscard]] bool has_wt() const noexcept { return cfg_.wt.has_value(); }
  [[nodiscard]] const PlantConfig& config() const noexcept { return cfg_; }

 private:
  PlantConfig cfg_;
};

}  // namespace ecthub::renewables
