// Urban scenario: rooftop-PV hub with dense EV demand.  Trains a small
// ECT-DRL (PPO) scheduler and compares it against the rule-based baselines —
// the workload the paper's urban deployment (Fig. 6, left) motivates.
//
//   $ ./urban_hub [--train-iters 8] [--episodes 4]
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "core/policy_runner.hpp"
#include "policy/rule_policies.hpp"

#include <iostream>
#include <memory>

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::size_t train_iters = flags.get_size("train-iters", 60);
  const std::size_t episodes = flags.get_size("episodes", 4);
  flags.check_unknown();

  core::HubConfig hub = core::HubConfig::urban("UrbanHub", 11);
  hub.ev_popularity = 0.95;  // busy downtown station

  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 14;
  env_cfg.discount_by_hour.assign(24, false);
  for (std::size_t h = 18; h < 24; ++h) env_cfg.discount_by_hour[h] = true;

  std::cout << "=== Urban hub: PPO vs rule-based schedulers ===\n";
  TextTable table({"Scheduler", "mean episode profit ($)"});

  std::vector<std::unique_ptr<policy::Policy>> rule_based;
  rule_based.push_back(std::make_unique<policy::NoBatteryPolicy>());
  rule_based.push_back(std::make_unique<policy::TouPolicy>());
  rule_based.push_back(std::make_unique<policy::GreedyPricePolicy>());
  for (auto& s : rule_based) {
    core::EctHubEnv env(hub, env_cfg);
    table.begin_row().add(s->name()).add_double(
        stats::mean(core::run_policy(env, *s, episodes)), 2);
  }

  core::DrlFleetTrainConfig drl;
  drl.env = env_cfg;
  drl.iterations = train_iters;
  std::cout << "training PPO for " << train_iters << " iterations...\n";
  const auto result =
      core::run_hub_experiment(hub, env_cfg.discount_by_hour, drl, episodes, "ECT-DRL");
  table.begin_row().add("ECT-DRL (PPO)").add_double(
      result.avg_daily_reward * static_cast<double>(env_cfg.episode_days), 2);

  table.print(std::cout);
  std::cout << "\nPPO training curve (mean episode reward per iteration):";
  for (double r : result.train_curve) std::cout << " " << r;
  std::cout << "\n";
  return 0;
}
