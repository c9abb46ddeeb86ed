// Shared setup for the ECT-DRL experiment benches (Table III, Fig. 13):
// trains the pricing stage (ECT-Price + the three baselines), converts each
// method's per-item discount decisions into per-hub weekly discount
// schedules, and provides the PPO experiment configuration.
#pragma once

#include "ectprice_common.hpp"

#include "core/fleet.hpp"
#include "core/hub_config.hpp"

#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ecthub::benchx {

/// Majority vote of per-item discount decisions into an hourly schedule for
/// one station — each method's own decision rule (expected gain for
/// ECT-Price, positive-uplift threshold for the baselines) decides every
/// hour, exactly how the method would be deployed.
inline std::vector<bool> flags_by_hour(const std::vector<causal::Item>& items,
                                       const std::vector<bool>& decisions,
                                       std::size_t station_id) {
  std::vector<std::size_t> yes(24, 0), total(24, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].station_id != station_id) continue;
    ++total[items[i].hour];
    if (decisions[i]) ++yes[items[i].hour];
  }
  std::vector<bool> flags(24, false);
  for (std::size_t h = 0; h < 24; ++h) {
    flags[h] = total[h] > 0 && 2 * yes[h] > total[h];
  }
  return flags;
}

/// Discount schedules per method per station: schedules["Ours"][station].
using MethodSchedules = std::map<std::string, std::vector<std::vector<bool>>>;

/// Trains all four pricing methods and derives the per-station schedules.
/// `discount` is the fraction the hub will apply (drives ECT-Price's
/// expected-gain decision rule).
inline MethodSchedules train_pricing_stage(const EctPriceSetup& setup, std::size_t num_stations,
                                           std::uint64_t seed, double discount = 0.2) {
  MethodSchedules schedules;

  std::cout << "training ECT-Price...\n";
  const auto preds = train_ectprice_ensemble(setup, seed, 3);
  const auto our_decisions = causal::decide_by_strata(preds, discount);
  for (std::size_t s = 0; s < num_stations; ++s) {
    schedules["Ours"].push_back(flags_by_hour(setup.test, our_decisions, s));
  }

  std::vector<std::unique_ptr<causal::UpliftModel>> baselines;
  baselines.push_back(
      std::make_unique<causal::OutcomeRegression>(setup.uplift_cfg, Rng(seed + 20)));
  baselines.push_back(
      std::make_unique<causal::InversePropensityScoring>(setup.uplift_cfg, Rng(seed + 30)));
  baselines.push_back(std::make_unique<causal::DoublyRobust>(setup.uplift_cfg, Rng(seed + 40)));
  for (auto& b : baselines) {
    std::cout << "training " << b->name() << "...\n";
    b->fit(setup.train);
    const auto decisions = causal::decide_by_uplift(b->uplift(setup.test));
    for (std::size_t s = 0; s < num_stations; ++s) {
      schedules[b->name()].push_back(flags_by_hour(setup.test, decisions, s));
    }
  }
  return schedules;
}

/// ECT-DRL training config from bench flags:
///   --episode-days (30), --discount (0.2), --train-iters (12),
///   --ppo-episodes (6 per iteration)
inline core::DrlFleetTrainConfig make_drl_config(const CliFlags& flags) {
  core::DrlFleetTrainConfig cfg;
  cfg.env.episode_days = flags.get_size("episode-days", 30);
  cfg.env.discount_fraction = flags.get_double("discount", 0.2);
  cfg.ppo.episodes_per_iteration = flags.get_size("ppo-episodes", 6);
  cfg.iterations = flags.get_size("train-iters", 12);
  return cfg;
}

/// Greedy test episodes per trained actor: --test-episodes (3, >= 1).
inline std::size_t test_episodes(const CliFlags& flags) {
  return flags.get_count("test-episodes", 3);
}

/// Aligns each fleet hub's EV behaviour with the dataset station whose
/// charging history trained the pricing stage — the schedules then face the
/// same demand structure they were optimized for.
inline void align_fleet_with_stations(std::vector<core::HubConfig>& fleet,
                                      const EctPriceSetup& setup) {
  for (std::size_t i = 0; i < fleet.size() && i < setup.station_profiles.size(); ++i) {
    const auto& p = setup.station_profiles[i];
    fleet[i].ev_popularity = p.popularity();
    fleet[i].ev_evening_sensitivity = p.evening_sensitivity();
    fleet[i].ev_evening_commuter = p.evening_commuter();
  }
}

inline const std::vector<std::string>& method_order() {
  static const std::vector<std::string> order = {"Ours", "OR", "IPS", "DR"};
  return order;
}

}  // namespace ecthub::benchx
