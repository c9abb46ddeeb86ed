// Quickstart: build one ECT-Hub, run a 7-day episode with a simple
// price-arbitrage policy, and print the profit breakdown.
//
//   $ ./quickstart
//
// This is the smallest end-to-end use of the public API: configure a hub,
// construct its environment, drive it with a policy through the shared
// observation vector, read the ledger.
#include "core/hub_config.hpp"
#include "core/hub_env.hpp"
#include "policy/rule_policies.hpp"

#include <iostream>
#include <vector>

int main() {
  using namespace ecthub;

  // 1. Configure a hub: an urban base station with rooftop PV, a backup
  //    battery pack, and a 2-plug charging station.
  core::HubConfig hub = core::HubConfig::urban("DemoHub", /*seed=*/2024);

  // 2. Build the episodic environment.  Give evening discounts (the pattern
  //    ECT-Price discovers) so the charging station attracts EVs.
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 7;
  env_cfg.discount_by_hour.assign(24, false);
  for (std::size_t h = 19; h < 23; ++h) env_cfg.discount_by_hour[h] = true;
  core::EctHubEnv env(hub, env_cfg);

  // 3. Run one week under the greedy price-arbitrage policy.  Policies never
  //    see the environment — they read the observation vector each step.
  //    The environment writes each observation into one reused buffer.
  policy::GreedyPricePolicy scheduler(env.observation_layout());
  std::vector<double> state(env.state_dim());
  env.reset_into(state);
  scheduler.begin_episode();
  bool done = false;
  while (!done) done = env.step_into(scheduler.decide(state), state).done;

  // 4. Read the books.
  const core::ProfitLedger& ledger = env.ledger();
  std::cout << "=== DemoHub, one week ===\n";
  std::cout << "EV charging revenue : $" << ledger.total_revenue() << "\n";
  std::cout << "Grid energy cost    : $" << ledger.total_grid_cost() << "\n";
  std::cout << "Battery wear cost   : $" << ledger.total_bp_cost() << "\n";
  std::cout << "Total profit        : $" << ledger.total_profit() << "\n\n";
  std::cout << "Daily profit:";
  for (double d : ledger.daily_profit()) std::cout << " " << d;
  std::cout << "\nBattery SoC at end  : " << env.soc_frac() * 100.0 << "%\n";
  return 0;
}
