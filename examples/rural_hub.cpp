// Rural scenario: PV + wind-turbine hub along a highway (Fig. 6, right).
// Shows how renewable generation reshapes the hub economics: the same
// scheduler earns more when wind/solar displace grid imports, and surplus
// energy makes EV charging nearly free to serve.
//
//   $ ./rural_hub [--episodes 5]
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hub_env.hpp"
#include "core/policy_runner.hpp"
#include "policy/rule_policies.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::size_t episodes = flags.get_size("episodes", 5);
  flags.check_unknown();

  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 14;
  env_cfg.discount_by_hour.assign(24, false);
  for (std::size_t h = 17; h < 23; ++h) env_cfg.discount_by_hour[h] = true;

  std::cout << "=== Rural hub: renewable-generation economics ===\n\n";
  TextTable table({"Configuration", "profit ($)", "grid cost ($)", "EV revenue ($)"});
  for (const auto& [label, plant] :
       std::vector<std::pair<std::string, renewables::PlantConfig>>{
           {"PV + WT", renewables::PlantConfig::rural()},
           {"PV only", renewables::PlantConfig::urban()},
           {"no renewables", renewables::PlantConfig::none()}}) {
    core::HubConfig hub = core::HubConfig::rural("RuralHub", 17);
    hub.plant = plant;
    core::EctHubEnv env(hub, env_cfg);
    policy::GreedyPricePolicy sched(env.observation_layout());
    double profit = 0, grid = 0, revenue = 0;
    for (std::size_t e = 0; e < episodes; ++e) {
      (void)core::run_policy(env, sched, 1);
      profit += env.ledger().total_profit();
      grid += env.ledger().total_grid_cost();
      revenue += env.ledger().total_revenue();
    }
    const double n = static_cast<double>(episodes);
    table.begin_row()
        .add(label)
        .add_double(profit / n, 2)
        .add_double(grid / n, 2)
        .add_double(revenue / n, 2);
  }
  table.print(std::cout);
  std::cout << "\nWind + PV cut the grid bill and lift profit — the rural deployment\n"
               "case the paper highlights (abundant renewables, highway EV traffic).\n";
  return 0;
}
