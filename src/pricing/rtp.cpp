#include "pricing/rtp.hpp"

#include "common/elementary.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::pricing {

void RtpConfig::validate() const {
  // Written so that NaN fails every check, and every field must be finite.
  for (const double x :
       {base_price, diurnal_amplitude, load_coupling, noise_sigma, spike_scale, floor_price}) {
    if (!std::isfinite(x)) throw std::invalid_argument("RtpConfig: non-finite field");
  }
  if (!(base_price > 0.0)) throw std::invalid_argument("RtpConfig: base_price must be > 0");
  if (!(noise_sigma >= 0.0)) throw std::invalid_argument("RtpConfig: noise_sigma < 0");
  if (!(spike_prob >= 0.0 && spike_prob <= 1.0)) {
    throw std::invalid_argument("RtpConfig: spike_prob out of [0, 1]");
  }
  if (!(noise_persistence >= 0.0 && noise_persistence < 1.0)) {
    throw std::invalid_argument("RtpConfig: noise_persistence out of [0, 1)");
  }
}

RtpGenerator::RtpGenerator(RtpConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) { cfg_.validate(); }

double RtpGenerator::diurnal_component(double hour_of_day) const {
  // Two-bump day: a morning shoulder around 9h and the dominant evening peak
  // around 20h, with a deep trough in the small hours — the Fig. 5 shape.
  const auto bump = [hour_of_day](double center, double width) {
    const double z = (hour_of_day - center) / width;
    return elementary::exp(-0.5 * (z * z));
  };
  const double morning = 0.45 * bump(9.0, 2.5);
  const double evening = 1.00 * bump(20.0, 2.8);
  const double trough = -0.55 * bump(4.0, 2.5);
  return cfg_.diurnal_amplitude * (morning + evening + trough);
}

void RtpGenerator::generate_into(const TimeGrid& grid, const std::vector<double>& system_load,
                                 std::vector<double>& price_out) {
  if (!system_load.empty() && system_load.size() != grid.size()) {
    throw std::invalid_argument("RtpGenerator: system_load length must match grid");
  }
  price_out.resize(grid.size());
  // The diurnal curve depends only on the hour of day: evaluated once per
  // slot of the day, then read back and overwritten slot by slot below.
  fill_by_slot_of_day(grid, price_out, [this](double hour) { return diurnal_component(hour); });
  double ar = 0.0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    ar = cfg_.noise_persistence * ar + rng_.normal(0.0, cfg_.noise_sigma);
    double p = cfg_.base_price + price_out[t] + ar;
    if (!system_load.empty()) p += cfg_.load_coupling * system_load[t];
    if (rng_.bernoulli(cfg_.spike_prob)) p += rng_.exponential(1.0 / cfg_.spike_scale);
    price_out[t] = std::max(p, cfg_.floor_price);
  }
}

}  // namespace ecthub::pricing
