#include "policy/rule_policies.hpp"

#include "common/stats.hpp"
#include "common/time_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::policy {

namespace {
bool in_window(double hour, double start, double end) {
  return start <= end ? (hour >= start && hour < end) : (hour >= start || hour < end);
}
}  // namespace

std::size_t NoBatteryPolicy::decide(std::span<const double>) { return 0; }

void NoBatteryPolicy::decide_rows(const nn::Matrix& obs, std::size_t row_begin,
                                  std::size_t row_end, std::span<std::size_t> actions,
                                  Workspace&) const {
  check_rows(obs, row_begin, row_end, actions);
  for (std::size_t i = row_begin; i < row_end; ++i) actions[i] = 0;
}

TouPolicy::TouPolicy(ObservationLayout layout, double charge_start, double charge_end,
                     double discharge_start, double discharge_end)
    : layout_(layout), cs_(charge_start), ce_(charge_end), ds_(discharge_start),
      de_(discharge_end) {}

std::size_t TouPolicy::decide_obs(std::span<const double> obs) const {
  const double hour = layout_.hour_of_day(obs);
  if (in_window(hour, cs_, ce_)) return 1;  // charge off-peak
  if (in_window(hour, ds_, de_)) return 2;  // discharge at peak
  return 0;
}

std::size_t TouPolicy::decide(std::span<const double> obs) { return decide_obs(obs); }

void TouPolicy::decide_rows(const nn::Matrix& obs, std::size_t row_begin,
                            std::size_t row_end, std::span<std::size_t> actions,
                            Workspace&) const {
  check_rows(obs, row_begin, row_end, actions);
  const double* data = obs.data().data();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    actions[i] = decide_obs(std::span<const double>(data + i * obs.cols(), obs.cols()));
  }
}

GreedyPricePolicy::GreedyPricePolicy(ObservationLayout layout, double low_quantile,
                                     double high_quantile)
    : layout_(layout), low_q_(low_quantile), high_q_(high_quantile) {
  if (!(0.0 <= low_quantile && low_quantile < high_quantile && high_quantile <= 100.0)) {
    throw std::invalid_argument("GreedyPricePolicy: bad quantiles");
  }
}

std::size_t GreedyPricePolicy::decide(std::span<const double> obs) {
  const double now = layout_.rtp(obs);
  if (std::isnan(now)) throw std::invalid_argument("GreedyPricePolicy: NaN price");
  // Trailing window of realized prices: the current slot plus the previous
  // day (24 slots), exactly the slots a per-slot decision has seen.  The
  // sorted copy slides with it — one binary-search erase and one insert per
  // slot — and holds what std::sort of the window would, so both quantiles
  // are read off it directly.
  constexpr std::size_t kWindow = kSlotsPerDay;
  if (seen_.size() == kWindow + 1) {
    sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), seen_.front()));
    seen_.erase(seen_.begin());
  }
  seen_.push_back(now);
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), now), now);
  const double p_lo = stats::sorted_percentile(sorted_, low_q_);
  const double p_hi = stats::sorted_percentile(sorted_, high_q_);
  if (now <= p_lo) return 1;
  if (now >= p_hi) return 2;
  return 0;
}

ForecastPolicy::ForecastPolicy(ObservationLayout layout, double low_band, double high_band)
    : layout_(layout), low_band_(low_band), high_band_(high_band),
      price_forecast_(kSlotsPerDay) {
  if (!(0.0 <= low_band && low_band < high_band && high_band <= 1.0)) {
    throw std::invalid_argument("ForecastPolicy: bad bands");
  }
}

std::size_t ForecastPolicy::decide(std::span<const double> obs) {
  // Feed the realized price for this slot, then act on the predicted curve.
  price_forecast_.observe(slot_, layout_.rtp(obs));

  // Predicted daily curve (the predictor's 24 hourly slots) and its band
  // edges.
  const auto [lo, hi] = price_forecast_.season_range();
  const double now = price_forecast_.predict(slot_);
  ++slot_;
  if (hi - lo < 1e-9) return 0;
  const double pos = (now - lo) / (hi - lo);
  if (pos <= low_band_) return 1;   // cheap part of the predicted day: charge
  if (pos >= high_band_) return 2;  // expensive part: discharge
  return 0;
}

RandomPolicy::RandomPolicy(std::uint64_t seed) : rng_(seed) {}

std::size_t RandomPolicy::decide(std::span<const double>) {
  return static_cast<std::size_t>(rng_.uniform_int(0, 2));
}

}  // namespace ecthub::policy
