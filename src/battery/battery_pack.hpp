// Battery point (BP) model — the backup battery group of one or more nearby
// base stations, repurposed as the hub's energy-storage system.
//
// Implements the paper's Eqs. 3-5 and 8:
//   P_BP(t)   = S_BP(t) * eta_{ch|dch} * R_{ch|dch}         (Eq. 3)
//   SoC(t+1)  = SoC(t) + P_BP(t) * dt                        (Eq. 4)
//   SoC_min <= SoC(t) <= SoC_max                             (Eq. 5)
//   C_BP(t)   = |S_BP(t)| * c_BP                             (Eq. 8)
//
// Sign convention: from the hub's perspective P_BP > 0 means the pack draws
// power (charging, a load) and P_BP < 0 means it supplies power
// (discharging, a source) — matching Eq. 7 where P_BP adds to demand.
#pragma once

#include <limits>
#include <stdexcept>

namespace ecthub::battery {

/// The three scheduling actions for the pack (paper S_BP in {1, -1, 0}).
enum class BpAction { kIdle = 0, kCharge = 1, kDischarge = 2 };

struct BatteryConfig {
  double capacity_kwh = 100.0;      ///< nameplate energy capacity
  double charge_rate_kw = 20.0;     ///< R_ch, grid-side draw while charging
  double discharge_rate_kw = 20.0;  ///< R_dch, load-side supply while discharging
  double charge_efficiency = 0.95;     ///< eta_ch: fraction of drawn power stored
  double discharge_efficiency = 0.95;  ///< eta_dch: stored energy per delivered unit ratio^-1
  double soc_min_frac = 0.2;        ///< Eq. 5 lower bound as a capacity fraction
  double soc_max_frac = 0.95;       ///< Eq. 5 upper bound as a capacity fraction
  double op_cost_per_slot = 0.01;   ///< c_BP: wear cost per active slot, $

  void validate() const;
};

/// Result of stepping the pack one slot.
struct BpStepResult {
  /// Power at the hub bus, kW: positive = consumed (charging), negative =
  /// provided (discharging), zero when idle or when the action was infeasible.
  double bus_power_kw = 0.0;
  /// Wear cost incurred this slot (Eq. 8), $.
  double op_cost = 0.0;
  /// The action actually applied (infeasible requests degrade to kIdle).
  BpAction applied = BpAction::kIdle;
};

class BatteryPack {
 public:
  /// @param initial_soc_frac starting state of charge as a capacity fraction;
  ///        clamped into [soc_min_frac, soc_max_frac].
  BatteryPack(BatteryConfig cfg, double initial_soc_frac);

  /// Applies `action` for a slot of `dt_hours`.  Actions that would violate
  /// the SoC bounds are partially applied up to the bound; an action with no
  /// feasible headroom at all degrades to kIdle (and incurs no wear cost).
  ///
  /// `max_discharge_kw` throttles the delivered power below R_dch: the DC
  /// bus cannot absorb more than the hub's instantaneous net load, so the
  /// BMS limits discharge to it (surplus renewable power is curtailed, but
  /// battery energy is never dumped).  Ignored for charge/idle.
  BpStepResult step(BpAction action, double dt_hours,
                    double max_discharge_kw = std::numeric_limits<double>::infinity());

  [[nodiscard]] double soc_kwh() const noexcept { return soc_kwh_; }
  [[nodiscard]] double soc_frac() const noexcept { return soc_kwh_ / cfg_.capacity_kwh; }
  [[nodiscard]] double soc_min_kwh() const noexcept {
    return cfg_.soc_min_frac * cfg_.capacity_kwh;
  }
  [[nodiscard]] double soc_max_kwh() const noexcept {
    return cfg_.soc_max_frac * cfg_.capacity_kwh;
  }

  /// Energy the pack can still absorb (bus side), kWh.
  [[nodiscard]] double headroom_kwh() const noexcept { return soc_max_kwh() - soc_kwh_; }

  /// Raises the effective SoC floor (used by the blackout-reserve constraint,
  /// Eq. 6).  Must stay within [soc_min, soc_max].
  void set_reserve_floor_kwh(double floor_kwh);
  [[nodiscard]] double reserve_floor_kwh() const noexcept { return reserve_floor_kwh_; }

  /// Forces the SoC (clamped to bounds) — used at episode resets.
  void reset_soc_frac(double frac);

  [[nodiscard]] const BatteryConfig& config() const noexcept { return cfg_; }

 private:
  BatteryConfig cfg_;
  double soc_kwh_;
  double reserve_floor_kwh_;
};

}  // namespace ecthub::battery
