#include "policy/observation.hpp"

#include "common/elementary.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace ecthub::policy {

void ObservationLayout::check(std::span<const double> obs) const {
  if (obs.size() != dim()) {
    throw std::invalid_argument("ObservationLayout: observation has " +
                                std::to_string(obs.size()) + " features, layout expects " +
                                std::to_string(dim()));
  }
}

double ObservationLayout::rtp(std::span<const double> obs) const {
  check(obs);
  return obs[rtp_begin() + lookback - 1] * kPriceScale;
}

double ObservationLayout::srtp(std::span<const double> obs) const {
  check(obs);
  return obs[srtp_begin() + lookback - 1] * kPriceScale;
}

double ObservationLayout::soc(std::span<const double> obs) const {
  check(obs);
  return obs[soc_index()];
}

double ObservationLayout::hour_of_day(std::span<const double> obs) const {
  check(obs);
  const double phase = elementary::atan2(obs[hour_sin_index()], obs[hour_cos_index()]);
  double hour = phase * 24.0 / (2.0 * std::numbers::pi);
  if (hour < 0.0) hour += 24.0;
  // Snap so hour values that were exact on the grid survive the sin/cos
  // round trip exactly (atan2 is accurate to ~1 ulp, far inside 1e-7 h).
  hour = std::round(hour * 1e7) / 1e7;
  return hour >= 24.0 ? hour - 24.0 : hour;
}

}  // namespace ecthub::policy
