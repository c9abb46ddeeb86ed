#include "forecast/predictors.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::forecast {

SeasonalNaivePredictor::SeasonalNaivePredictor(std::size_t period, double alpha)
    : period_(period), alpha_(alpha), seasonal_(period, 0.0), seen_(period, 0) {
  if (period == 0) throw std::invalid_argument("SeasonalNaivePredictor: period == 0");
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("SeasonalNaivePredictor: alpha out of (0, 1]");
  }
}

void SeasonalNaivePredictor::observe(std::size_t t, double value) {
  const std::size_t slot = t % period_;
  if (!seen_[slot]) {
    seasonal_[slot] = value;
    seen_[slot] = 1;
  } else {
    seasonal_[slot] += alpha_ * (value - seasonal_[slot]);
  }
  global_mean_ += (value - global_mean_) / static_cast<double>(++count_);
}

double SeasonalNaivePredictor::predict(std::size_t t) const {
  const std::size_t slot = t % period_;
  return seen_[slot] ? seasonal_[slot] : global_mean_;
}

SeasonalNaivePredictor::Range SeasonalNaivePredictor::season_range() const {
  const double first = seen_[0] ? seasonal_[0] : global_mean_;
  Range r{first, first};
  for (std::size_t slot = 1; slot < period_; ++slot) {
    const double p = seen_[slot] ? seasonal_[slot] : global_mean_;
    r.lo = std::min(r.lo, p);
    r.hi = std::max(r.hi, p);
  }
  return r;
}

}  // namespace ecthub::forecast
