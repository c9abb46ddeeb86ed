#include "ev/behavior.hpp"

#include "common/elementary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::ev {

std::string to_string(Stratum s) {
  switch (s) {
    case Stratum::kNone: return "None";
    case Stratum::kIncentive: return "Incentive";
    case Stratum::kAlways: return "Always";
  }
  throw std::logic_error("to_string(Stratum): invalid value");
}

void StrataProbs::normalize() {
  p_none = std::max(p_none, 0.0);
  p_incentive = std::max(p_incentive, 0.0);
  p_always = std::max(p_always, 0.0);
  const double total = p_none + p_incentive + p_always;
  if (total <= 0.0) {
    p_none = 1.0;
    p_incentive = p_always = 0.0;
    return;
  }
  p_none /= total;
  p_incentive /= total;
  p_always /= total;
}

namespace {

/// The Gaussian bump exp(-((hour - center) / width)^2 / 2).
double bump(double hour, double center, double width) {
  const double z = (hour - center) / width;
  return elementary::exp(-0.5 * (z * z));
}

/// Daytime "must charge" envelope: commuters and fleet vehicles during
/// business hours, small overnight tail.
double always_envelope(double hour) {
  const double day = bump(hour, 13.0, 5.0);
  const double overnight = 0.12;
  return std::clamp(0.45 * day + overnight * 0.2, 0.0, 1.0);
}

/// Price-sensitive evening envelope: discretionary charging 18-24h
/// (paper Fig. 12(d): Incentive share jumps to ~41% in that window).
double incentive_envelope(double hour) {
  const double evening = bump(hour, 21.0, 2.4);
  const double base = 0.05;
  return std::clamp(evening + base, 0.0, 1.0);
}

}  // namespace

StrataProfile::StrataProfile(double popularity, double evening_sensitivity,
                             double evening_commuter)
    : popularity_(popularity),
      evening_sensitivity_(evening_sensitivity),
      evening_commuter_(evening_commuter) {
  // Written so that NaN fails.
  if (!(popularity > 0.0 && popularity <= 1.0)) {
    throw std::invalid_argument("StrataProfile: popularity out of (0, 1]");
  }
  if (!(evening_sensitivity >= 0.0 && evening_sensitivity <= 1.0)) {
    throw std::invalid_argument("StrataProfile: evening_sensitivity out of [0, 1]");
  }
  if (!(evening_commuter >= 0.0 && evening_commuter <= 1.0)) {
    throw std::invalid_argument("StrataProfile: evening_commuter out of [0, 1]");
  }
  for (std::size_t h = 0; h < 24; ++h) {
    StrataProbs p;
    const double hour = static_cast<double>(h);
    p.p_always = popularity * (always_envelope(hour) +
                               0.45 * evening_commuter * incentive_envelope(hour));
    p.p_incentive = popularity * evening_sensitivity * 0.55 * incentive_envelope(hour);
    p.p_none = 1.0 - p.p_always - p.p_incentive;
    p.normalize();
    hourly_[h] = p;
  }
}

StrataProfile StrataProfile::random_station(Rng& rng) {
  return StrataProfile(rng.uniform(0.5, 1.0), rng.uniform(0.4, 0.9), rng.uniform(0.0, 0.7));
}

const StrataProbs& StrataProfile::at_hour(std::size_t hour) const {
  if (hour >= 24) throw std::out_of_range("StrataProfile: hour out of range");
  return hourly_[hour];
}

Stratum StrataProfile::sample(std::size_t hour, Rng& rng) const {
  const StrataProbs& p = at_hour(hour);
  const double u = rng.uniform();
  if (u < p.p_always) return Stratum::kAlways;
  if (u < p.p_always + p.p_incentive) return Stratum::kIncentive;
  return Stratum::kNone;
}

bool charges(Stratum s, bool discounted, Rng& rng, double noise) {
  if (noise < 0.0 || noise > 0.5) throw std::invalid_argument("charges: noise out of [0, 0.5]");
  bool outcome = false;
  switch (s) {
    case Stratum::kAlways: outcome = true; break;
    case Stratum::kIncentive: outcome = discounted; break;
    case Stratum::kNone: outcome = false; break;
  }
  if (rng.bernoulli(noise)) outcome = !outcome;
  return outcome;
}

}  // namespace ecthub::ev
