// Charging-station model (paper Eq. 2): P_CS(t) = S_CS(t) * R_CS.
//
// The hub environment needs the station's occupancy state S_CS and power draw
// per slot.  Occupancy is driven by the strata ground truth: an EV is present
// when the slot's sampled behaviour (given the current discount decision)
// results in a charge.
#pragma once

#include "common/rng.hpp"
#include "common/time_grid.hpp"
#include "ev/behavior.hpp"

#include <vector>

namespace ecthub::ev {

struct StationConfig {
  std::size_t station_id = 0;
  double plug_rate_kw = 7.2;  ///< R_CS: level-2 DC charging rate per plug
  std::size_t num_plugs = 2;  ///< simultaneous charging capacity
};

/// Per-slot charging state for a horizon.
struct OccupancySeries {
  std::vector<double> power_kw;  ///< P_CS(t)

  [[nodiscard]] std::size_t size() const noexcept { return power_kw.size(); }
};

class ChargingStation {
 public:
  ChargingStation(StationConfig cfg, StrataProfile profile);

  /// Simulates the horizon into `out`, reusing its capacity, so EctHubEnv
  /// regenerates occupancy without touching the heap: for each slot the true
  /// stratum is sampled from the profile and converted to an occupancy given
  /// the discount decision.  `discounted[t]` marks slots where the hub offers
  /// a discount.
  void simulate_into(const TimeGrid& grid, const std::vector<bool>& discounted, Rng& rng,
                     OccupancySeries& out) const;

  /// Power draw for a given number of charging EVs (clamped to num_plugs).
  [[nodiscard]] double power_kw(std::uint64_t vehicles) const;

  [[nodiscard]] const StationConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const StrataProfile& profile() const noexcept { return profile_; }

 private:
  StationConfig cfg_;
  StrataProfile profile_;
};

}  // namespace ecthub::ev
