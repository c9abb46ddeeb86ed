#include "pricing/selling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::pricing {

DiscountSchedule::DiscountSchedule(std::size_t slots) : fractions_(slots, 0.0) {}

DiscountSchedule DiscountSchedule::from_flags(const std::vector<bool>& discounted,
                                              double fraction) {
  if (fraction < 0.0 || fraction >= 1.0) {
    throw std::invalid_argument("DiscountSchedule: fraction must be in [0, 1)");
  }
  DiscountSchedule s(discounted.size());
  for (std::size_t t = 0; t < discounted.size(); ++t) {
    if (discounted[t]) s.set(t, fraction);
  }
  return s;
}

void DiscountSchedule::set(std::size_t t, double fraction) {
  if (t >= fractions_.size()) throw std::out_of_range("DiscountSchedule: slot out of range");
  if (fraction < 0.0 || fraction >= 1.0) {
    throw std::invalid_argument("DiscountSchedule: fraction must be in [0, 1)");
  }
  fractions_[t] = fraction;
}

double DiscountSchedule::at(std::size_t t) const {
  if (t >= fractions_.size()) throw std::out_of_range("DiscountSchedule: slot out of range");
  return fractions_[t];
}

void SellingConfig::validate() const {
  // Written so that NaN fails.
  if (!(std::isfinite(markup) && markup > 0.0)) {
    throw std::invalid_argument("SellingConfig: markup must be finite and > 0");
  }
  if (!std::isfinite(floor)) throw std::invalid_argument("SellingConfig: floor must be finite");
}

SellingPricePolicy::SellingPricePolicy(SellingConfig cfg, DiscountSchedule schedule)
    : cfg_(cfg), schedule_(std::move(schedule)) {
  cfg_.validate();
}

double SellingPricePolicy::srtp(std::size_t t, double rtp) const {
  const double p = cfg_.markup * rtp * (1.0 - schedule_.at(t));
  return std::max(p, cfg_.floor);
}

void SellingPricePolicy::series_into(const std::vector<double>& rtp,
                                     std::vector<double>& out) const {
  if (rtp.size() != schedule_.size()) {
    throw std::invalid_argument("SellingPricePolicy: rtp length must match schedule");
  }
  out.resize(rtp.size());
  for (std::size_t t = 0; t < rtp.size(); ++t) out[t] = srtp(t, rtp[t]);
}

}  // namespace ecthub::pricing
