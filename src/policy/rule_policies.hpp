// Rule-based battery policies: ablation baselines against ECT-DRL.
//
// These implement the obvious operating strategies an operator would try
// before reaching for RL; the ablation bench (DESIGN.md Sec. 5) measures how
// much of ECT-DRL's profit each heuristic captures.  All of them read the
// shared observation vector (observation.hpp) — never the environment — so
// the fleet engine drives them through the same Policy API as the DRL actor.
#pragma once

#include "common/rng.hpp"
#include "forecast/predictors.hpp"
#include "policy/observation.hpp"
#include "policy/policy.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace ecthub::policy {

/// Never uses the battery (the no-BESS operating point).
class NoBatteryPolicy final : public Policy {
 public:
  std::size_t decide(std::span<const double> obs) override;
  void decide_rows(const nn::Matrix& obs, std::size_t row_begin, std::size_t row_end,
                   std::span<std::size_t> actions, Workspace& ws) const override;
  [[nodiscard]] std::string name() const override { return "NoBattery"; }
  [[nodiscard]] bool stateless() const override { return true; }
};

/// Charges during a fixed off-peak window and discharges during the evening
/// peak — the classic time-of-use rule.  Reads the hour of day back from the
/// observation's phase encoding.
class TouPolicy final : public Policy {
 public:
  explicit TouPolicy(ObservationLayout layout = {}, double charge_start = 23.0,
                     double charge_end = 7.0, double discharge_start = 17.0,
                     double discharge_end = 22.0);
  std::size_t decide(std::span<const double> obs) override;
  void decide_rows(const nn::Matrix& obs, std::size_t row_begin, std::size_t row_end,
                   std::span<std::size_t> actions, Workspace& ws) const override;
  [[nodiscard]] std::string name() const override { return "TOU"; }
  [[nodiscard]] bool stateless() const override { return true; }

 private:
  [[nodiscard]] std::size_t decide_obs(std::span<const double> obs) const;

  ObservationLayout layout_;
  double cs_, ce_, ds_, de_;
};

/// Price-threshold arbitrage: charge when the current RTP is below the
/// trailing-day low quantile, discharge above the high quantile.  Stateful:
/// it accumulates one realized price per decide() call and clears the window
/// at each episode start.  A NaN price throws std::invalid_argument.
class GreedyPricePolicy final : public Policy {
 public:
  explicit GreedyPricePolicy(ObservationLayout layout = {}, double low_quantile = 30.0,
                             double high_quantile = 70.0);
  std::size_t decide(std::span<const double> obs) override;
  void begin_episode() override {
    seen_.clear();
    sorted_.clear();
  }
  [[nodiscard]] std::string name() const override { return "GreedyPrice"; }

 private:
  ObservationLayout layout_;
  double low_q_, high_q_;
  std::vector<double> seen_;    ///< trailing window of realized prices, oldest first
  std::vector<double> sorted_;  ///< the same prices in ascending order
};

/// Forecast-driven arbitrage: learns the diurnal price curve online with a
/// seasonal-naive forecaster and charges/discharges when the *forecast* for
/// the current hour sits in the low/high band of the predicted daily curve.
/// Unlike GreedyPricePolicy it reacts to the expected price shape rather
/// than realized quantiles — the interpretable middle ground between the
/// TOU rule and ECT-DRL.  The learned curve survives across episodes (the
/// diurnal structure persists); only the slot counter resets.
class ForecastPolicy final : public Policy {
 public:
  /// @param low_band / high_band fractions of the predicted daily range
  explicit ForecastPolicy(ObservationLayout layout = {}, double low_band = 0.3,
                          double high_band = 0.7);
  std::size_t decide(std::span<const double> obs) override;
  void begin_episode() override { slot_ = 0; }
  [[nodiscard]] std::string name() const override { return "Forecast"; }

 private:
  ObservationLayout layout_;
  double low_band_, high_band_;
  forecast::SeasonalNaivePredictor price_forecast_;
  std::size_t slot_ = 0;
};

/// Uniform random action — the sanity-check floor.
class RandomPolicy final : public Policy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 1);
  std::size_t decide(std::span<const double> obs) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  Rng rng_;
};

}  // namespace ecthub::policy
