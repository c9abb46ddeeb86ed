// Hub power balance (paper Eq. 7) and per-slot power-flow accounting.
//
// P_grid(t) = max{0, P_BS + P_CS + P_BP - P_WT - P_PV}: demand not covered by
// the battery or renewables is imported from the grid; surplus renewable
// generation is curtailed rather than fed back (the paper argues grid
// feed-in is not viable, Sec. I).
#pragma once

namespace ecthub::power {

/// All power terms for one slot, kW.  Sign conventions follow the paper:
/// bp_kw > 0 while charging (load), < 0 while discharging (source).
struct PowerFlow {
  double bs_kw = 0.0;
  double cs_kw = 0.0;
  double bp_kw = 0.0;
  double wt_kw = 0.0;
  double pv_kw = 0.0;

  /// Grid import per Eq. 7, never negative.
  [[nodiscard]] double grid_kw() const;
};

}  // namespace ecthub::power
