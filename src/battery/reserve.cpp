#include "battery/reserve.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::battery {

double reserve_energy_worst_window(const std::vector<double>& bs_power_kw,
                                   std::size_t recovery_slots) {
  if (recovery_slots == 0) throw std::invalid_argument("reserve window must be >= 1 slot");
  if (bs_power_kw.size() < recovery_slots) {
    throw std::invalid_argument("trace shorter than recovery window");
  }
  double window = 0.0;
  for (std::size_t t = 0; t < recovery_slots; ++t) window += bs_power_kw[t];
  double worst = window;
  for (std::size_t t = recovery_slots; t < bs_power_kw.size(); ++t) {
    window += bs_power_kw[t] - bs_power_kw[t - recovery_slots];
    worst = std::max(worst, window);
  }
  return worst;
}

double reserve_floor_fraction(double reserve_kwh, double capacity_kwh,
                              double discharge_efficiency) {
  if (capacity_kwh <= 0.0) throw std::invalid_argument("capacity_kwh must be > 0");
  if (discharge_efficiency <= 0.0 || discharge_efficiency > 1.0) {
    throw std::invalid_argument("discharge_efficiency out of (0, 1]");
  }
  const double stored_needed = reserve_kwh / discharge_efficiency;
  return std::clamp(stored_needed / capacity_kwh, 0.0, 1.0);
}

}  // namespace ecthub::battery
