// Profit accounting (paper Eqs. 8-12).
//
//   C_grid(t) = P_grid(t) * RTP(t)            (Eq. 9)
//   C_BP(t)   = |S_BP(t)| * c_BP              (Eq. 8)
//   CR        = sum_t P_CS(t) * SRTP(t)       (Eq. 11)
//   Psi       = CR - sum_t [C_grid + C_BP]    (Eq. 12)
// Prices are $/MWh and power is kW held for a one-hour slot, so each slot's
// dollar value is kW * price / 1000.
#pragma once

#include <cstddef>
#include <vector>

namespace ecthub::core {

/// Dollar economics of one slot.
struct SlotEconomics {
  double revenue = 0.0;    ///< P_CS * SRTP
  double grid_cost = 0.0;  ///< P_grid * RTP
  double bp_cost = 0.0;    ///< |S_BP| * c_BP

  [[nodiscard]] double profit() const { return revenue - grid_cost - bp_cost; }
};

/// Computes one one-hour slot's economics.  Throws std::invalid_argument
/// unless both powers are >= 0 (NaN fails).
/// @param cs_kw     charging-station draw, kW
/// @param grid_kw   grid import, kW
/// @param srtp      selling price, $/MWh
/// @param rtp       grid price, $/MWh
/// @param bp_cost   battery wear cost already in dollars (Eq. 8)
[[nodiscard]] SlotEconomics slot_economics(double cs_kw, double grid_kw, double srtp,
                                           double rtp, double bp_cost);

/// Running accumulator with per-day aggregation over kSlotsPerDay-slot days.
class ProfitLedger {
 public:
  void record(const SlotEconomics& e);

  /// Clears all totals and the daily series — lets one ledger instance be
  /// reused across episodes without reallocation.
  void reset();

  [[nodiscard]] double total_revenue() const noexcept { return revenue_; }
  [[nodiscard]] double total_grid_cost() const noexcept { return grid_cost_; }
  [[nodiscard]] double total_bp_cost() const noexcept { return bp_cost_; }
  [[nodiscard]] double total_profit() const noexcept {
    return revenue_ - grid_cost_ - bp_cost_;
  }

  /// Profit of each completed (or partially completed) day.
  [[nodiscard]] const std::vector<double>& daily_profit() const noexcept { return daily_; }

  [[nodiscard]] std::size_t slots_recorded() const noexcept { return slots_; }

 private:
  std::size_t slots_ = 0;
  double revenue_ = 0.0;
  double grid_cost_ = 0.0;
  double bp_cost_ = 0.0;
  std::vector<double> daily_;
};

}  // namespace ecthub::core
