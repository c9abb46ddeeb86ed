#include "power/base_station.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::power {

void BaseStationConfig::validate() const {
  // Written so that NaN fails: std::max(0.0, NaN) would drop the BS load.
  if (!(std::isfinite(idle_power_kw) && idle_power_kw >= 0.0)) {
    throw std::invalid_argument("BaseStationConfig: idle_power_kw must be finite and >= 0");
  }
  if (!(std::isfinite(full_power_kw) && full_power_kw > idle_power_kw)) {
    throw std::invalid_argument("BaseStationConfig: full_power_kw must be finite and exceed idle_power_kw");
  }
}

BaseStation::BaseStation(BaseStationConfig cfg) : cfg_(cfg) { cfg_.validate(); }

double BaseStation::power_kw(double load_rate) const {
  const double alpha = std::clamp(load_rate, 0.0, 1.0);
  return cfg_.idle_power_kw + alpha * (cfg_.full_power_kw - cfg_.idle_power_kw);
}

std::vector<double> BaseStation::series(const std::vector<double>& load_rate) const {
  std::vector<double> out(load_rate.size());
  for (std::size_t t = 0; t < load_rate.size(); ++t) out[t] = power_kw(load_rate[t]);
  return out;
}

}  // namespace ecthub::power
