#include "ev/dataset.hpp"

#include "common/elementary.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::ev {

ChargingDataset::ChargingDataset(DatasetConfig cfg, Rng rng) : cfg_(cfg) {
  if (cfg_.num_stations == 0) throw std::invalid_argument("DatasetConfig: num_stations == 0");
  if (cfg_.num_days == 0) throw std::invalid_argument("DatasetConfig: num_days == 0");
  if (cfg_.base_propensity < 0.0 || cfg_.base_propensity > 1.0) {
    throw std::invalid_argument("DatasetConfig: base_propensity out of [0, 1]");
  }

  profiles_.reserve(cfg_.num_stations);
  for (std::size_t s = 0; s < cfg_.num_stations; ++s) {
    profiles_.push_back(StrataProfile::random_station(rng));
  }

  // Latent per-day demand factors (the unmeasured confounder U).
  demand_factors_.reserve(cfg_.num_days);
  for (std::size_t d = 0; d < cfg_.num_days; ++d) {
    if (cfg_.demand_sigma <= 0.0) {
      demand_factors_.push_back(1.0);
    } else {
      const double z = rng.normal();
      demand_factors_.push_back(
          elementary::exp(cfg_.demand_sigma * z - 0.5 * cfg_.demand_sigma * cfg_.demand_sigma));
    }
  }

  records_.reserve(cfg_.num_stations * cfg_.num_days * 24);
  for (std::uint32_t s = 0; s < cfg_.num_stations; ++s) {
    for (std::uint32_t d = 0; d < cfg_.num_days; ++d) {
      const double demand = demand_factors_[d];
      for (std::uint32_t h = 0; h < 24; ++h) {
        ChargingRecord rec;
        rec.station = s;
        rec.day = d;
        rec.hour = h;
        rec.day_of_week = static_cast<std::uint8_t>(d % 7);
        // Demand scales the charging mass of the cell (both strata), with
        // None absorbing the remainder.
        StrataProbs p = profiles_[s].at_hour(h);
        p.p_always *= demand;
        p.p_incentive *= demand;
        p.p_none = 1.0 - p.p_always - p.p_incentive;
        p.normalize();
        const double u = rng.uniform();
        rec.stratum = u < p.p_always
                          ? Stratum::kAlways
                          : (u < p.p_always + p.p_incentive ? Stratum::kIncentive
                                                            : Stratum::kNone);
        rec.treated = rng.bernoulli(true_propensity(s, h, demand));
        rec.charged = charges(rec.stratum, rec.treated, rng, cfg_.outcome_noise);
        records_.push_back(rec);
      }
    }
  }
}

double ChargingDataset::true_propensity(std::uint32_t station, std::uint32_t hour) const {
  if (station >= profiles_.size()) throw std::out_of_range("true_propensity: bad station");
  if (hour >= 24) throw std::out_of_range("true_propensity: bad hour");
  double p = cfg_.base_propensity;
  if (hour >= 18 || hour < 2) p += cfg_.night_propensity_boost;
  p += cfg_.sensitivity_boost * profiles_[station].evening_sensitivity();
  return std::clamp(p, 0.02, 0.98);
}

double ChargingDataset::true_propensity(std::uint32_t station, std::uint32_t hour,
                                        double demand_factor) const {
  const double base = true_propensity(station, hour);
  return std::clamp(base + cfg_.busy_propensity_boost * (demand_factor - 1.0), 0.02, 0.98);
}

std::size_t ChargingDataset::num_charges() const {
  return static_cast<std::size_t>(std::count_if(
      records_.begin(), records_.end(), [](const ChargingRecord& r) { return r.charged; }));
}

ChargingDataset::Split ChargingDataset::split(double train_fraction) const {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("split: train_fraction must be in (0, 1)");
  }
  const auto boundary_day =
      static_cast<std::uint32_t>(static_cast<double>(cfg_.num_days) * train_fraction);
  Split out;
  for (const auto& r : records_) {
    (r.day < boundary_day ? out.train : out.test).push_back(r);
  }
  return out;
}

std::vector<std::size_t> ChargingDataset::charge_frequency_by_hour() const {
  std::vector<std::size_t> freq(24, 0);
  for (const auto& r : records_) {
    if (r.charged) ++freq[r.hour];
  }
  return freq;
}

}  // namespace ecthub::ev
