// 5G base-station power model (paper Eq. 1).
//
// P_BS(t) = P_min + alpha_t (P_max - P_min): the BBU draws a constant floor
// while the AAU scales linearly with the load rate.  Typical 5G figures are
// 2-4 kW at full load (paper Sec. II-A).
#pragma once

#include <vector>

namespace ecthub::power {

struct BaseStationConfig {
  double idle_power_kw = 1.0;  ///< P_min: BBU + idle AAU
  double full_power_kw = 3.5;  ///< P_max at load rate 1.0

  /// Throws std::invalid_argument unless 0 <= idle < full, both finite.
  void validate() const;
};

class BaseStation {
 public:
  explicit BaseStation(BaseStationConfig cfg);

  /// Power draw (kW) at a load rate clamped into [0, 1].
  [[nodiscard]] double power_kw(double load_rate) const;

  /// Whole-horizon series from a load-rate trace.
  [[nodiscard]] std::vector<double> series(const std::vector<double>& load_rate) const;

  [[nodiscard]] const BaseStationConfig& config() const noexcept { return cfg_; }

 private:
  BaseStationConfig cfg_;
};

}  // namespace ecthub::power
