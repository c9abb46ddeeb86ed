#include "renewables/wind_turbine.hpp"

#include <cmath>
#include <stdexcept>

namespace ecthub::renewables {

void WindTurbineConfig::validate() const {
  // Written so that NaN fails.
  if (!(0.0 < cut_in_ms && cut_in_ms < rated_speed_ms && rated_speed_ms < cut_out_ms &&
        std::isfinite(cut_out_ms))) {
    throw std::invalid_argument(
        "WindTurbineConfig: need 0 < cut_in < rated_speed < cut_out < inf");
  }
  if (!(std::isfinite(rated_power_w) && rated_power_w > 0.0)) {
    throw std::invalid_argument("WindTurbineConfig: rated_power_w must be finite and > 0");
  }
}

WindTurbine::WindTurbine(WindTurbineConfig cfg)
    : cfg_(cfg),
      cut_in_cubed_(cfg.cut_in_ms * cfg.cut_in_ms * cfg.cut_in_ms),
      cubic_span_(cfg.rated_speed_ms * cfg.rated_speed_ms * cfg.rated_speed_ms - cut_in_cubed_) {
  cfg_.validate();
}

double WindTurbine::power_w(double v) const {
  if (v < cfg_.cut_in_ms || v >= cfg_.cut_out_ms) return 0.0;
  if (v >= cfg_.rated_speed_ms) return cfg_.rated_power_w;
  // Cubic interpolation between cut-in and rated speed (P ~ v^3 physics).
  const double num = v * v * v - cut_in_cubed_;
  return cfg_.rated_power_w * num / cubic_span_;
}

}  // namespace ecthub::renewables
