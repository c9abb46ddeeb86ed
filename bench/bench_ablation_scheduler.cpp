// Ablation — design-choice benchmarks from DESIGN.md Sec. 5:
//   1. ECT-DRL (PPO) vs rule-based schedulers (TOU / greedy price / random /
//      no battery) on one hub.
//   2. Renewables ablation: hub profit with and without the PV+WT plant.
//   3. Blackout-reserve ablation: profit cost of the Eq. 6 SoC floor.
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "core/policy_runner.hpp"
#include "policy/rule_policies.hpp"

#include <iostream>
#include <memory>

namespace {

double mean_profit(ecthub::core::EctHubEnv& env, ecthub::policy::Policy& pol,
                   std::size_t episodes) {
  return ecthub::stats::mean(ecthub::core::run_policy(env, pol, episodes));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::size_t episodes = flags.get_size("episodes", 5);

  std::cout << "=== Ablation: scheduler, renewables and reserve choices ===\n\n";

  core::HubConfig hub = core::HubConfig::rural("AblationHub", 4242);
  // Small pack so the blackout-reserve floor actually constrains cycling.
  hub.battery.capacity_kwh = 50.0;
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = flags.get_size("episode-days", 30);
  const std::size_t train_iters = flags.get_size("train-iters", 120);
  flags.check_unknown();
  // A mild always-evening discount schedule so the charging station is active.
  env_cfg.discount_by_hour.assign(24, false);
  for (std::size_t h = 18; h < 24; ++h) env_cfg.discount_by_hour[h] = true;

  // --- 1. Scheduler comparison -------------------------------------------
  std::cout << "--- Scheduler comparison (mean episode profit, $/episode) ---\n";
  TextTable sched_table({"Scheduler", "mean profit", "stddev"});
  std::vector<std::unique_ptr<policy::Policy>> policies;
  policies.push_back(std::make_unique<policy::NoBatteryPolicy>());
  policies.push_back(std::make_unique<policy::TouPolicy>());
  policies.push_back(std::make_unique<policy::GreedyPricePolicy>());
  policies.push_back(std::make_unique<policy::ForecastPolicy>());
  policies.push_back(std::make_unique<policy::RandomPolicy>(3));
  for (auto& s : policies) {
    core::EctHubEnv env(hub, env_cfg);
    const auto profits = core::run_policy(env, *s, episodes);
    sched_table.begin_row()
        .add(s->name())
        .add_double(stats::mean(profits), 2)
        .add_double(stats::stddev(profits), 2);
  }
  {
    core::DrlFleetTrainConfig drl;
    drl.env = env_cfg;
    drl.iterations = train_iters;
    const auto result = core::run_hub_experiment(hub, env_cfg.discount_by_hour, drl,
                                                 episodes, "ECT-DRL");
    sched_table.begin_row()
        .add("ECT-DRL (PPO)")
        .add_double(result.avg_daily_reward * static_cast<double>(drl.env.episode_days), 2)
        .add("-");
  }
  sched_table.print(std::cout);

  // --- 2. Renewables ablation --------------------------------------------
  std::cout << "\n--- Renewables ablation (greedy scheduler) ---\n";
  TextTable ren_table({"Plant", "mean profit"});
  for (const auto& [label, plant] :
       std::vector<std::pair<std::string, renewables::PlantConfig>>{
           {"PV + WT (rural)", renewables::PlantConfig::rural()},
           {"PV only (urban)", renewables::PlantConfig::urban()},
           {"none (prior work [7])", renewables::PlantConfig::none()}}) {
    core::HubConfig h = hub;
    h.plant = plant;
    core::EctHubEnv env(h, env_cfg);
    policy::GreedyPricePolicy greedy;
    ren_table.begin_row().add(label).add_double(mean_profit(env, greedy, episodes), 2);
  }
  ren_table.print(std::cout);

  // --- 3. Reserve ablation -------------------------------------------------
  std::cout << "\n--- Blackout-reserve ablation (greedy scheduler) ---\n";
  TextTable res_table({"Recovery time T_r", "mean profit"});
  for (const double tr : {0.0, 4.0, 12.0}) {
    core::HubConfig h = hub;
    h.recovery_hours = tr;
    core::EctHubEnv env(h, env_cfg);
    policy::GreedyPricePolicy greedy;
    res_table.begin_row()
        .add(std::to_string(static_cast<int>(tr)) + " h")
        .add_double(mean_profit(env, greedy, episodes), 2);
  }
  res_table.print(std::cout);
  std::cout << "\nLarger reserves shrink the tradable SoC window, trading profit for\n"
               "blackout resilience (Eq. 6); renewables raise profit by displacing\n"
               "grid imports — the design points DESIGN.md Sec. 5 calls out.\n";
  return 0;
}
