// Tests for the EV behaviour substrate: strata ground truth, charging
// stations and the synthetic charging-history dataset.
#include "common/stats.hpp"
#include "ev/behavior.hpp"
#include "ev/dataset.hpp"
#include "ev/station.hpp"

#include <gtest/gtest.h>

namespace ecthub::ev {
namespace {

// ---------------------------------------------------------------- behavior

TEST(StrataProbs, NormalizeSumsToOne) {
  StrataProbs p{0.5, 0.3, 0.4};
  p.normalize();
  EXPECT_NEAR(p.p_none + p.p_incentive + p.p_always, 1.0, 1e-12);
}

TEST(StrataProbs, NormalizeHandlesDegenerateInput) {
  StrataProbs p{-1.0, -2.0, -3.0};
  p.normalize();
  EXPECT_DOUBLE_EQ(p.p_none, 1.0);
}

TEST(StrataProfile, ProbabilitiesValidEveryHour) {
  const StrataProfile profile(0.8, 0.7);
  for (std::size_t h = 0; h < 24; ++h) {
    const StrataProbs& p = profile.at_hour(h);
    EXPECT_GE(p.p_none, 0.0);
    EXPECT_GE(p.p_incentive, 0.0);
    EXPECT_GE(p.p_always, 0.0);
    EXPECT_NEAR(p.p_none + p.p_incentive + p.p_always, 1.0, 1e-9);
  }
}

TEST(StrataProfile, IncentiveConcentratesInEvening) {
  // The Fig. 12 observation: Incentive mass peaks in the 18-24h period.
  const StrataProfile profile(0.8, 0.7);
  double evening = 0.0, daytime = 0.0;
  for (std::size_t h = 18; h < 24; ++h) evening += profile.at_hour(h).p_incentive;
  for (std::size_t h = 6; h < 12; ++h) daytime += profile.at_hour(h).p_incentive;
  EXPECT_GT(evening, 2.0 * daytime);
}

TEST(StrataProfile, AlwaysDominatesDaytime) {
  const StrataProfile profile(0.9, 0.6);
  double day_always = 0.0, night_always = 0.0;
  for (std::size_t h = 10; h < 16; ++h) day_always += profile.at_hour(h).p_always;
  for (std::size_t h = 0; h < 6; ++h) night_always += profile.at_hour(h).p_always;
  EXPECT_GT(day_always, night_always);
}

TEST(StrataProfile, PopularityScalesChargeMass) {
  const StrataProfile busy(1.0, 0.7);
  const StrataProfile quiet(0.5, 0.7);
  double busy_mass = 0.0, quiet_mass = 0.0;
  for (std::size_t h = 0; h < 24; ++h) {
    busy_mass += busy.at_hour(h).p_always + busy.at_hour(h).p_incentive;
    quiet_mass += quiet.at_hour(h).p_always + quiet.at_hour(h).p_incentive;
  }
  EXPECT_GT(busy_mass, quiet_mass);
}

TEST(StrataProfile, SampleMatchesDistribution) {
  const StrataProfile profile(0.8, 0.7);
  Rng rng(1);
  const std::size_t hour = 21;
  std::size_t incentive = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    if (profile.sample(hour, rng) == Stratum::kIncentive) ++incentive;
  }
  EXPECT_NEAR(static_cast<double>(incentive) / n, profile.at_hour(hour).p_incentive, 0.02);
}

TEST(StrataProfile, RejectsBadParameters) {
  EXPECT_THROW(StrataProfile(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(StrataProfile(1.5, 0.5), std::invalid_argument);
  EXPECT_THROW(StrataProfile(0.5, -0.1), std::invalid_argument);
}

TEST(Charges, DeterministicWithoutNoise) {
  Rng rng(2);
  EXPECT_TRUE(charges(Stratum::kAlways, false, rng, 0.0));
  EXPECT_TRUE(charges(Stratum::kAlways, true, rng, 0.0));
  EXPECT_TRUE(charges(Stratum::kIncentive, true, rng, 0.0));
  EXPECT_FALSE(charges(Stratum::kIncentive, false, rng, 0.0));
  EXPECT_FALSE(charges(Stratum::kNone, true, rng, 0.0));
  EXPECT_FALSE(charges(Stratum::kNone, false, rng, 0.0));
}

TEST(Charges, NoiseFlipsOutcomeOccasionally) {
  Rng rng(3);
  std::size_t flips = 0;
  const std::size_t n = 10000;
  for (std::size_t i = 0; i < n; ++i) {
    if (!charges(Stratum::kAlways, false, rng, 0.1)) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / n, 0.1, 0.02);
}

TEST(Charges, RejectsBadNoise) {
  Rng rng(4);
  EXPECT_THROW((void)charges(Stratum::kAlways, true, rng, 0.6), std::invalid_argument);
}

TEST(Stratum, ToStringCoversAll) {
  EXPECT_EQ(to_string(Stratum::kNone), "None");
  EXPECT_EQ(to_string(Stratum::kIncentive), "Incentive");
  EXPECT_EQ(to_string(Stratum::kAlways), "Always");
}

// ---------------------------------------------------------------- station

TEST(ChargingStation, PowerClampsToPlugCount) {
  StationConfig cfg;
  cfg.plug_rate_kw = 7.2;
  cfg.num_plugs = 2;
  const ChargingStation station(cfg, StrataProfile(0.8, 0.7));
  EXPECT_DOUBLE_EQ(station.power_kw(0), 0.0);
  EXPECT_DOUBLE_EQ(station.power_kw(1), 7.2);
  EXPECT_DOUBLE_EQ(station.power_kw(2), 14.4);
  EXPECT_DOUBLE_EQ(station.power_kw(5), 14.4);  // clamped
}

// P_CS(t) is the slot's busy plugs at R_CS: replaying the draws from an
// identically seeded Rng (stratum, charge, second plug, in that order) gives
// each slot's vehicle count.
TEST(ChargingStation, SimulateProducesConsistentSeries) {
  const StrataProfile profile(0.8, 0.7);
  const ChargingStation station(StationConfig{}, profile);
  const TimeGrid grid(7, 24);
  Rng rng(8);
  OccupancySeries occ;
  station.simulate_into(grid, std::vector<bool>(grid.size(), false), rng, occ);
  ASSERT_EQ(occ.size(), grid.size());
  Rng replay(8);
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const auto hour = static_cast<std::size_t>(grid.hour_of_day(t));
    const Stratum s = profile.sample(hour, replay);
    std::uint64_t n = charges(s, false, replay) ? 1 : 0;
    if (n > 0 && replay.bernoulli(0.4 * profile.at_hour(hour).p_always)) ++n;
    EXPECT_EQ(occ.power_kw[t], station.power_kw(n)) << t;
  }
}

TEST(ChargingStation, DiscountsIncreaseEveningOccupancy) {
  const ChargingStation station(StationConfig{}, StrataProfile(0.9, 0.9));
  const TimeGrid grid(100, 24);
  std::vector<bool> all_discount(grid.size(), true);
  std::vector<bool> no_discount(grid.size(), false);
  Rng rng_a(9), rng_b(9);
  OccupancySeries with;
  station.simulate_into(grid, all_discount, rng_a, with);
  OccupancySeries without;
  station.simulate_into(grid, no_discount, rng_b, without);
  double evening_with = 0, evening_without = 0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    if (grid.hour_of_day(t) >= 18) {
      evening_with += with.power_kw[t];
      evening_without += without.power_kw[t];
    }
  }
  EXPECT_GT(evening_with, 1.5 * evening_without);
}

TEST(ChargingStation, FlagLengthValidated) {
  const ChargingStation station(StationConfig{}, StrataProfile(0.8, 0.7));
  const TimeGrid grid(1, 24);
  Rng rng(10);
  OccupancySeries occ;
  EXPECT_THROW(station.simulate_into(grid, std::vector<bool>(3, false), rng, occ),
               std::invalid_argument);
}

TEST(ChargingStation, RejectsBadConfig) {
  StationConfig bad;
  bad.plug_rate_kw = 0.0;
  EXPECT_THROW(ChargingStation(bad, StrataProfile(0.8, 0.7)), std::invalid_argument);
  StationConfig bad2;
  bad2.num_plugs = 0;
  EXPECT_THROW(ChargingStation(bad2, StrataProfile(0.8, 0.7)), std::invalid_argument);
}

// ---------------------------------------------------------------- dataset

TEST(ChargingDataset, RecordCountMatchesConfig) {
  DatasetConfig cfg;
  cfg.num_stations = 3;
  cfg.num_days = 10;
  const ChargingDataset ds(cfg, Rng(11));
  EXPECT_EQ(ds.records().size(), 3u * 10u * 24u);
  EXPECT_EQ(ds.profiles().size(), 3u);
}

TEST(ChargingDataset, ChronologicalSplitHasNoLeakage) {
  DatasetConfig cfg;
  cfg.num_stations = 2;
  cfg.num_days = 20;
  const ChargingDataset ds(cfg, Rng(12));
  const auto split = ds.split(0.8);
  for (const auto& r : split.train) EXPECT_LT(r.day, 16u);
  for (const auto& r : split.test) EXPECT_GE(r.day, 16u);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.records().size());
}

TEST(ChargingDataset, SplitValidation) {
  DatasetConfig cfg;
  cfg.num_stations = 1;
  cfg.num_days = 5;
  const ChargingDataset ds(cfg, Rng(13));
  EXPECT_THROW(ds.split(0.0), std::invalid_argument);
  EXPECT_THROW(ds.split(1.0), std::invalid_argument);
}

TEST(ChargingDataset, PropensityIsConfounded) {
  // The logging policy must give more discounts at night — the confounder the
  // causal methods have to handle.
  DatasetConfig cfg;
  cfg.num_stations = 2;
  cfg.num_days = 5;
  const ChargingDataset ds(cfg, Rng(14));
  EXPECT_GT(ds.true_propensity(0, 20), ds.true_propensity(0, 10));
}

TEST(ChargingDataset, TreatmentRateTracksPropensity) {
  DatasetConfig cfg;
  cfg.num_stations = 4;
  cfg.num_days = 200;
  const ChargingDataset ds(cfg, Rng(15));
  std::size_t treated_night = 0, total_night = 0, treated_day = 0, total_day = 0;
  for (const auto& r : ds.records()) {
    if (r.hour >= 18 || r.hour < 2) {
      ++total_night;
      if (r.treated) ++treated_night;
    } else if (r.hour >= 8 && r.hour < 16) {
      ++total_day;
      if (r.treated) ++treated_day;
    }
  }
  const double night_rate = static_cast<double>(treated_night) / total_night;
  const double day_rate = static_cast<double>(treated_day) / total_day;
  EXPECT_GT(night_rate, day_rate + 0.1);
}

TEST(ChargingDataset, OutcomesRespectStrata) {
  DatasetConfig cfg;
  cfg.num_stations = 3;
  cfg.num_days = 100;
  cfg.outcome_noise = 0.0;
  const ChargingDataset ds(cfg, Rng(16));
  for (const auto& r : ds.records()) {
    switch (r.stratum) {
      case Stratum::kAlways: EXPECT_TRUE(r.charged); break;
      case Stratum::kIncentive: EXPECT_EQ(r.charged, r.treated); break;
      case Stratum::kNone: EXPECT_FALSE(r.charged); break;
    }
  }
}

TEST(ChargingDataset, ChargeFrequencyHistogramSums) {
  DatasetConfig cfg;
  cfg.num_stations = 2;
  cfg.num_days = 50;
  const ChargingDataset ds(cfg, Rng(17));
  const auto freq = ds.charge_frequency_by_hour();
  std::size_t total = 0;
  for (std::size_t c : freq) total += c;
  EXPECT_EQ(total, ds.num_charges());
}

TEST(ChargingDataset, FrequencyShapeMatchesFig3) {
  // Daytime charging dominates deep night, evening sits between.
  DatasetConfig cfg;
  cfg.num_stations = 6;
  cfg.num_days = 200;
  const ChargingDataset ds(cfg, Rng(18));
  const auto freq = ds.charge_frequency_by_hour();
  EXPECT_GT(freq[13], freq[3]);
  EXPECT_GT(freq[20], freq[3]);
}

TEST(ChargingDataset, DeterministicGivenSeed) {
  DatasetConfig cfg;
  cfg.num_stations = 2;
  cfg.num_days = 10;
  const ChargingDataset a(cfg, Rng(19));
  const ChargingDataset b(cfg, Rng(19));
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].charged, b.records()[i].charged);
    EXPECT_EQ(a.records()[i].treated, b.records()[i].treated);
  }
}

TEST(ChargingDataset, DemandFactorsHaveUnitMean) {
  DatasetConfig cfg;
  cfg.num_stations = 1;
  cfg.num_days = 2000;
  cfg.demand_sigma = 0.4;
  const ChargingDataset ds(cfg, Rng(20));
  ASSERT_EQ(ds.demand_factors().size(), 2000u);
  double mean = 0.0;
  for (double u : ds.demand_factors()) {
    EXPECT_GT(u, 0.0);
    mean += u;
  }
  EXPECT_NEAR(mean / 2000.0, 1.0, 0.05);
}

TEST(ChargingDataset, ZeroSigmaDisablesConfounder) {
  DatasetConfig cfg;
  cfg.num_stations = 1;
  cfg.num_days = 10;
  cfg.demand_sigma = 0.0;
  const ChargingDataset ds(cfg, Rng(21));
  for (double u : ds.demand_factors()) EXPECT_DOUBLE_EQ(u, 1.0);
}

TEST(ChargingDataset, BusyDaysGetMoreDiscounts) {
  // The unmeasured confounder: on high-demand days the logging policy gives
  // more discounts than on low-demand days.
  DatasetConfig cfg;
  cfg.num_stations = 6;
  cfg.num_days = 400;
  cfg.demand_sigma = 0.5;
  const ChargingDataset ds(cfg, Rng(22));
  const auto& u = ds.demand_factors();
  double treated_hi = 0, total_hi = 0, treated_lo = 0, total_lo = 0;
  for (const auto& r : ds.records()) {
    if (u[r.day] > 1.2) {
      total_hi += 1;
      treated_hi += r.treated ? 1 : 0;
    } else if (u[r.day] < 0.8) {
      total_lo += 1;
      treated_lo += r.treated ? 1 : 0;
    }
  }
  ASSERT_GT(total_hi, 0);
  ASSERT_GT(total_lo, 0);
  EXPECT_GT(treated_hi / total_hi, treated_lo / total_lo + 0.05);
}

TEST(ChargingDataset, BusyDaysSeeMoreCharging) {
  DatasetConfig cfg;
  cfg.num_stations = 6;
  cfg.num_days = 400;
  cfg.demand_sigma = 0.5;
  const ChargingDataset ds(cfg, Rng(23));
  const auto& u = ds.demand_factors();
  double charged_hi = 0, total_hi = 0, charged_lo = 0, total_lo = 0;
  for (const auto& r : ds.records()) {
    if (u[r.day] > 1.2) {
      total_hi += 1;
      charged_hi += r.charged ? 1 : 0;
    } else if (u[r.day] < 0.8) {
      total_lo += 1;
      charged_lo += r.charged ? 1 : 0;
    }
  }
  EXPECT_GT(charged_hi / total_hi, charged_lo / total_lo);
}

TEST(ChargingDataset, ConfoundedPropensityShiftsWithDemand) {
  DatasetConfig cfg;
  cfg.num_stations = 2;
  cfg.num_days = 5;
  const ChargingDataset ds(cfg, Rng(24));
  EXPECT_GT(ds.true_propensity(0, 12, 1.5), ds.true_propensity(0, 12, 1.0));
  EXPECT_LT(ds.true_propensity(0, 12, 0.5), ds.true_propensity(0, 12, 1.0));
  EXPECT_GE(ds.true_propensity(0, 12, -10.0), 0.02);  // clamped
  EXPECT_LE(ds.true_propensity(0, 12, 100.0), 0.98);
}

TEST(StrataProfile, EveningCommuterAddsAlwaysMassInEvening) {
  const StrataProfile plain(0.8, 0.6, 0.0);
  const StrataProfile commuter(0.8, 0.6, 0.8);
  EXPECT_GT(commuter.at_hour(21).p_always, plain.at_hour(21).p_always + 0.05);
  // Daytime Always mass is essentially unchanged.
  EXPECT_NEAR(commuter.at_hour(12).p_always, plain.at_hour(12).p_always, 0.03);
  EXPECT_THROW(StrataProfile(0.8, 0.6, 1.5), std::invalid_argument);
}

TEST(ChargingStation, SimulateIntoMatchesSimulateAndReusesBuffers) {
  const ChargingStation station(StationConfig{}, StrataProfile(0.8, 0.7, 0.3));
  const TimeGrid grid(3, 24);
  const std::vector<bool> discounted(grid.size(), false);
  Rng fresh_rng(61);
  OccupancySeries fresh;
  station.simulate_into(grid, discounted, fresh_rng, fresh);

  // A stale buffer of another length is overwritten whole.
  Rng rng(61);
  OccupancySeries reused;
  reused.power_kw.assign(7, -1.0);
  station.simulate_into(grid, discounted, rng, reused);
  EXPECT_EQ(reused.power_kw, fresh.power_kw);

  // A second pass must reuse the buffer (no realloc) and draw a fresh
  // stochastic stream, not replay the first.
  const double* power_buf = reused.power_kw.data();
  station.simulate_into(grid, discounted, rng, reused);
  EXPECT_EQ(reused.power_kw.data(), power_buf);
  EXPECT_EQ(reused.size(), grid.size());
  EXPECT_NE(reused.power_kw, fresh.power_kw);
}

TEST(ChargingDataset, RejectsBadConfig) {
  DatasetConfig bad;
  bad.num_stations = 0;
  EXPECT_THROW(ChargingDataset(bad, Rng(1)), std::invalid_argument);
  DatasetConfig bad2;
  bad2.base_propensity = 1.5;
  EXPECT_THROW(ChargingDataset(bad2, Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace ecthub::ev
