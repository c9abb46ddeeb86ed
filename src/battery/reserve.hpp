// Blackout-reserve sizing (paper Eq. 6).
//
// The SoC floor must cover the base station's energy draw over the estimated
// grid-recovery time T_r:  sum_{t..t+Tr} P_BS(t) <= SoC_min.  We size the
// floor against the worst-case window of a representative load trace, which
// is the conservative reading operators use.
#pragma once

#include <cstddef>
#include <vector>

namespace ecthub::battery {

/// Energy (kWh) of the worst contiguous window of `recovery_slots` slots in a
/// BS power trace sampled at `dt_hours` per slot.  Throws if the trace is
/// shorter than the window.
[[nodiscard]] double reserve_energy_worst_window(const std::vector<double>& bs_power_kw,
                                                 std::size_t recovery_slots, double dt_hours);

/// Converts a reserve energy into an SoC floor fraction for a pack of
/// `capacity_kwh`, accounting for discharge efficiency (stored energy must
/// exceed delivered energy).  Clamped to [0, 1].
[[nodiscard]] double reserve_floor_fraction(double reserve_kwh, double capacity_kwh,
                                            double discharge_efficiency);

}  // namespace ecthub::battery
