#include "renewables/pv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::renewables {

void PvConfig::validate() const {
  // Written so that NaN fails every check, and every field must be finite.
  for (const double x : {area_m2, temp_coeff_per_c, rated_power_w}) {
    if (!std::isfinite(x)) throw std::invalid_argument("PvConfig: non-finite field");
  }
  if (!(area_m2 > 0.0)) throw std::invalid_argument("PvConfig: area_m2 must be > 0");
  if (!(efficiency > 0.0 && efficiency <= 1.0)) {
    throw std::invalid_argument("PvConfig: efficiency out of (0, 1]");
  }
  if (!(inverter_efficiency > 0.0 && inverter_efficiency <= 1.0)) {
    throw std::invalid_argument("PvConfig: inverter_efficiency out of (0, 1]");
  }
  if (!(rated_power_w > 0.0)) throw std::invalid_argument("PvConfig: rated_power_w <= 0");
}

PvArray::PvArray(PvConfig cfg) : cfg_(cfg) { cfg_.validate(); }

double PvArray::power_w(double ghi_wm2, double ambient_temp_c) const {
  if (ghi_wm2 <= 0.0) return 0.0;
  // NOCT-style cell-temperature estimate: cells run hotter than ambient in
  // proportion to irradiance.
  const double cell_temp_c = ambient_temp_c + 0.03 * ghi_wm2;
  const double derate = std::max(0.0, 1.0 - cfg_.temp_coeff_per_c *
                                            std::max(0.0, cell_temp_c - 25.0));
  const double dc = ghi_wm2 * cfg_.area_m2 * cfg_.efficiency * derate;
  return std::min(dc * cfg_.inverter_efficiency, cfg_.rated_power_w);
}

}  // namespace ecthub::renewables
