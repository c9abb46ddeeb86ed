// Blackout (grid-outage) simulation — failure injection for the reserve
// design of Eq. 6.
//
// The whole point of the SoC floor is that the base station must ride
// through a grid outage on battery alone until the grid recovers.  This
// module injects outages into a hub's exogenous series and reports whether
// communication survived: the validation the paper's constraint implies but
// never exercises.  A slot is one hour, so durations in hours round up to
// whole slots and a slot's draw in kW is its energy in kWh.
#pragma once

#include "battery/battery_pack.hpp"
#include "common/rng.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ecthub::core {

struct OutageModel {
  /// Expected outages per 30 days.
  double rate_per_month = 1.0;
  /// Outage duration, uniform in [min, max] hours.
  double min_duration_h = 1.0;
  double max_duration_h = 8.0;

  /// Throws std::invalid_argument unless the rate is finite and >= 0 and
  /// 0 <= min_duration_h <= max_duration_h < inf.
  void validate() const;
};

/// Draws grid outages over a horizon of flags.size() one-hour slots and
/// writes them as per-slot flags: every flag is overwritten, 1 inside an
/// outage and 0 elsewhere.  The outage count is Poisson with mean
/// rate_per_month over the horizon; each outage then starts at a uniform slot
/// and lasts a uniform [min, max] hours, rounded up to whole slots (at least
/// one) and cut at the horizon.  Allocation-free.
void draw_outages_into(const OutageModel& model, Rng& rng, std::span<std::uint8_t> flags);

/// Result of riding one outage on battery.
struct RideThroughResult {
  bool survived = false;        ///< BS never lost power
  double slots_survived = 0;    ///< slots carried before depletion
  double energy_used_kwh = 0;   ///< battery energy consumed (bus side)
  double final_soc_kwh = 0;
};

/// Simulates a BS carried by the pack during an outage: every slot the pack
/// must deliver the BS draw (charging stations shut down during outages; the
/// full pack down to soc_min — not just the tradable band — is available,
/// which is exactly what the reserve floor protects).
/// @param bs_kw      BS power draw per slot across the outage window
/// @param soc_kwh    pack state of charge when the outage hits
/// Throws std::invalid_argument unless every draw is >= 0 (NaN fails).
[[nodiscard]] RideThroughResult ride_through(const battery::BatteryConfig& pack,
                                             double soc_kwh,
                                             const std::vector<double>& bs_kw);

/// Fraction of `trials` random outages survived when the pack sits at its
/// reserve floor — the Eq. 6 guarantee check.  `bs_kw` is a representative
/// load trace the outages are drawn over.
struct SurvivalStats {
  double survival_rate = 0.0;
  double mean_slots_survived = 0.0;
  std::size_t trials = 0;
};

/// Throws std::invalid_argument on a model that fails OutageModel::validate
/// and when max_duration_h exceeds the trace (bs_kw.size() hours), which
/// outage windows wrap.
[[nodiscard]] SurvivalStats outage_survival(const battery::BatteryConfig& pack,
                                            double floor_soc_kwh,
                                            const std::vector<double>& bs_kw,
                                            const OutageModel& model, std::size_t trials,
                                            Rng rng);

}  // namespace ecthub::core
