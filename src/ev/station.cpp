#include "ev/station.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::ev {

ChargingStation::ChargingStation(StationConfig cfg, StrataProfile profile)
    : cfg_(cfg), profile_(std::move(profile)) {
  if (!(std::isfinite(cfg_.plug_rate_kw) && cfg_.plug_rate_kw > 0.0)) {
    throw std::invalid_argument("StationConfig: plug_rate_kw must be finite and > 0");
  }
  if (cfg_.num_plugs == 0) throw std::invalid_argument("StationConfig: num_plugs == 0");
}

double ChargingStation::power_kw(std::uint64_t vehicles) const {
  const std::uint64_t active = std::min<std::uint64_t>(vehicles, cfg_.num_plugs);
  return static_cast<double>(active) * cfg_.plug_rate_kw;
}

void ChargingStation::simulate_into(const TimeGrid& grid, const std::vector<bool>& discounted,
                                    Rng& rng, OccupancySeries& out) const {
  if (discounted.size() != grid.size()) {
    throw std::invalid_argument(
        "ChargingStation::simulate_into: discounted length must match grid");
  }
  out.power_kw.resize(grid.size());
  std::size_t t = 0;
  for (std::size_t day = 0; day < grid.num_days(); ++day) {
    for (std::size_t hour = 0; hour < kSlotsPerDay; ++hour, ++t) {
      const Stratum s = profile_.sample(hour, rng);
      std::uint64_t n = charges(s, discounted[t], rng) ? 1 : 0;
      // Busy daytime slots occasionally fill a second plug.
      if (n > 0 && cfg_.num_plugs > 1) {
        const StrataProbs& p = profile_.at_hour(hour);
        if (rng.bernoulli(0.4 * p.p_always)) ++n;
      }
      out.power_kw[t] = power_kw(n);
    }
  }
}

}  // namespace ecthub::ev
