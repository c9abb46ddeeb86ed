// The online seasonal price forecaster behind the forecast-based policy
// (policy/rule_policies.hpp), an interpretable middle ground between the TOU
// rule and ECT-DRL.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecthub::forecast {

/// Seasonal-naive with EMA-smoothed seasonal slots: the forecast for hour h
/// is the smoothed history of past values at hour h.  The right baseline for
/// strongly diurnal series (prices, traffic, PV).
class SeasonalNaivePredictor {
 public:
  /// @param period number of slots per season (24 for hourly/diurnal)
  /// @param alpha  smoothing factor per seasonal slot
  SeasonalNaivePredictor(std::size_t period, double alpha = 0.3);

  /// Feeds the value observed at slot index `t` (slot-of-season = t % period).
  void observe(std::size_t t, double value);

  /// Forecast for slot index `t`; falls back to the global mean until the
  /// seasonal slot has been seen.
  [[nodiscard]] double predict(std::size_t t) const;

  /// Lowest and highest forecast over one season: min and max of predict(0)
  /// .. predict(period - 1), taken in that order in one pass over the slots.
  struct Range {
    double lo;
    double hi;
  };
  [[nodiscard]] Range season_range() const;

  [[nodiscard]] std::size_t period() const noexcept { return period_; }

 private:
  std::size_t period_;
  double alpha_;
  std::vector<double> seasonal_;
  // One byte per slot, not std::vector<bool>: season_range() reads every
  // flag per decision, and a bit-packed read costs a shift and a mask each.
  std::vector<std::uint8_t> seen_;
  double global_mean_ = 0.0;
  std::size_t count_ = 0;
};

/// Mean absolute error of a seasonal forecaster replayed over a series,
/// predicting each slot before observing it (slots of the first season are
/// not scored).
template <typename Predictor>
double replay_mae_seasonal(Predictor& p, const std::vector<double>& series) {
  double abs_err = 0.0;
  std::size_t scored = 0;
  for (std::size_t t = 0; t < series.size(); ++t) {
    if (t >= p.period()) {
      abs_err += std::abs(p.predict(t) - series[t]);
      ++scored;
    }
    p.observe(t, series[t]);
  }
  return scored == 0 ? 0.0 : abs_err / static_cast<double>(scored);
}

}  // namespace ecthub::forecast
