#include "traffic/generator.hpp"

#include "common/elementary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::traffic {

void TrafficConfig::validate() const {
  // Written so that NaN fails every check, and every field must be finite.
  for (const double x : {weekend_factor, noise_sigma}) {
    if (!std::isfinite(x)) throw std::invalid_argument("TrafficConfig: non-finite field");
  }
  if (!(noise_persistence >= 0.0 && noise_persistence < 1.0)) {
    throw std::invalid_argument("TrafficConfig: noise_persistence must be in [0, 1)");
  }
  if (!(noise_sigma >= 0.0)) throw std::invalid_argument("TrafficConfig: noise_sigma < 0");
  if (!(min_load >= 0.0 && min_load <= 1.0)) {
    throw std::invalid_argument("TrafficConfig: min_load out of [0, 1]");
  }
}

TrafficGenerator::TrafficGenerator(TrafficConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) {
  cfg_.validate();
}

void TrafficGenerator::generate_into(const TimeGrid& grid, TrafficTrace& trace) {
  const DiurnalProfile profile = DiurnalProfile::for_area(cfg_.area);
  trace.load_rate.resize(grid.size());
  // The envelope depends only on the hour of day: evaluated once per slot of
  // the day, then read back and overwritten slot by slot below.
  fill_by_slot_of_day(grid, trace.load_rate,
                      [&profile](double hour) { return profile.at_hour(hour); });

  double ar = 0.0;  // AR(1) log-multiplier state
  std::size_t t = 0;
  for (std::size_t day = 0; day < grid.num_days(); ++day) {
    const double weekend = grid.is_weekend(day * kSlotsPerDay) ? cfg_.weekend_factor : 1.0;
    for (std::size_t s = 0; s < kSlotsPerDay; ++s, ++t) {
      const double envelope = trace.load_rate[t];
      ar = cfg_.noise_persistence * ar + rng_.normal(0.0, cfg_.noise_sigma);
      const double load = std::clamp(envelope * weekend * elementary::exp(ar), cfg_.min_load, 1.0);
      trace.load_rate[t] = load;
    }
  }
}

}  // namespace ecthub::traffic
