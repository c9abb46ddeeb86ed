// Table III — average daily rewards for the 12-hub fleet under the four
// pricing methods, each driving its own ECT-DRL scheduler.
#include "drl_common.hpp"

#include "common/table.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  std::cout << "=== Table III: average daily rewards for 12 ECT-Hubs ===\n";
  benchx::EctPriceSetup setup = benchx::make_setup(flags, 0.3);
  const std::uint64_t seed = flags.get_size("seed", 101);
  const std::size_t num_hubs = flags.get_size("hubs", 12);

  std::vector<core::HubConfig> fleet = core::default_fleet();
  benchx::align_fleet_with_stations(fleet, setup);
  const benchx::MethodSchedules schedules =
      benchx::train_pricing_stage(setup, fleet.size(), seed);
  const core::DrlFleetTrainConfig drl_cfg = benchx::make_drl_config(flags);
  const std::size_t test_episodes = benchx::test_episodes(flags);
  flags.check_unknown();

  // rewards[method][hub]
  std::map<std::string, std::vector<double>> rewards;
  for (std::size_t h = 0; h < std::min(num_hubs, fleet.size()); ++h) {
    std::cout << "\ntraining ECT-DRL on " << fleet[h].name << " (4 price inputs)...\n";
    for (const auto& method : benchx::method_order()) {
      const auto result = core::run_hub_experiment(fleet[h], schedules.at(method).at(h),
                                                   drl_cfg, test_episodes, method);
      rewards[method].push_back(result.avg_daily_reward);
      std::cout << "  " << method << ": avg daily reward " << result.avg_daily_reward << "\n";
    }
  }

  std::vector<std::string> header = {"Methods"};
  for (std::size_t h = 0; h < rewards.begin()->second.size(); ++h) {
    header.push_back("Hub" + std::to_string(h + 1));
  }
  header.push_back("Mean");
  TextTable table(header);
  for (const auto& method : benchx::method_order()) {
    table.begin_row().add(method);
    double acc = 0.0;
    for (double r : rewards.at(method)) {
      table.add_double(r, 2);
      acc += r;
    }
    table.add_double(acc / static_cast<double>(rewards.at(method).size()), 2);
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: Ours achieves the highest average daily reward on every\n"
               "hub (paper Table III: e.g. Hub1 565.19 vs 529.57/498.63/535.58).\n"
               "Absolute magnitudes differ (synthetic substrate, $ per day).\n";
  return 0;
}
