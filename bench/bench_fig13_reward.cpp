// Fig. 13 — per-day reward of four example hubs over a 30-day test episode
// (each day averaged over --test-episodes episodes), one ECT-DRL model per
// pricing method.
#include "drl_common.hpp"

#include "common/csv.hpp"
#include "common/table.hpp"

#include <algorithm>
#include <iostream>
#include <limits>

static int run(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  std::cout << "=== Fig. 13: total reward of four example hubs ===\n";
  benchx::EctPriceSetup setup = benchx::make_setup(flags, 0.3);
  const std::uint64_t seed = flags.get_size("seed", 101);
  const core::DrlFleetTrainConfig drl_cfg = benchx::make_drl_config(flags);
  const std::size_t test_episodes = benchx::test_episodes(flags);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.check_unknown();

  std::vector<core::HubConfig> fleet = core::default_fleet();
  benchx::align_fleet_with_stations(fleet, setup);
  const benchx::MethodSchedules schedules =
      benchx::train_pricing_stage(setup, fleet.size(), seed);

  for (std::size_t h = 0; h < 4; ++h) {
    std::cout << "\n--- " << fleet[h].name << " ---\n";
    std::map<std::string, core::HubMethodResult> results;
    for (const auto& method : benchx::method_order()) {
      results.emplace(method, core::run_hub_experiment(fleet[h], schedules.at(method).at(h),
                                                       drl_cfg, test_episodes, method));
    }
    TextTable table({"day", "Ours", "OR", "IPS", "DR"});
    const std::size_t days = results.at("Ours").daily_rewards.size();
    for (std::size_t d = 0; d < days; d += 3) {
      table.begin_row().add_int(static_cast<long long>(d));
      for (const auto& method : benchx::method_order()) {
        table.add_double(results.at(method).daily_rewards[d], 2);
      }
    }
    table.print(std::cout);
    // The best baseline starts below every baseline, not at 0: when every
    // baseline loses money, Ours may still lose least.
    double mean_ours = 0, mean_best_baseline = -std::numeric_limits<double>::infinity();
    for (const auto& method : benchx::method_order()) {
      const auto& r = results.at(method);
      double mean = 0;
      for (double x : r.daily_rewards) mean += x;
      mean /= static_cast<double>(r.daily_rewards.size());
      if (method == "Ours") {
        mean_ours = mean;
      } else {
        mean_best_baseline = std::max(mean_best_baseline, mean);
      }
      std::cout << method << " mean daily reward: " << mean << "\n";
    }
    std::cout << (mean_ours >= mean_best_baseline ? "[shape OK] " : "[shape MISS] ")
              << "Ours vs best baseline: " << mean_ours << " vs " << mean_best_baseline << "\n";

    if (!csv_dir.empty()) {
      std::vector<double> day_axis(days);
      for (std::size_t d = 0; d < days; ++d) day_axis[d] = static_cast<double>(d);
      write_csv(csv_dir + "/fig13_" + fleet[h].name + ".csv",
                {"day", "ours", "or", "ips", "dr"},
                {day_axis, results.at("Ours").daily_rewards, results.at("OR").daily_rewards,
                 results.at("IPS").daily_rewards, results.at("DR").daily_rewards});
    }
  }
  std::cout << "\nPaper shape: the Ours curve sits above the baselines for most days and\n"
               "has the best average reward on each example hub.\n";
  return 0;
}

int main(int argc, char** argv) { return ecthub::cli_main(argc, argv, run); }
