// Fig. 11 — strata probability over the day for four example stations.
#include "ectprice_common.hpp"

#include "common/csv.hpp"
#include "common/table.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  std::cout << "=== Fig. 11: strata prediction of four example stations ===\n";
  benchx::EctPriceSetup setup = benchx::make_setup(flags);
  const std::uint64_t seed = flags.get_size("seed", 101);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.check_unknown();

  causal::EctPriceModel model(setup.price_cfg, Rng(seed + 10));
  model.fit(setup.train);
  const auto preds = model.predict(setup.test);

  for (std::size_t station = 0; station < 4; ++station) {
    const auto curves = causal::strata_curves_for_station(setup.test, preds, station);
    std::cout << "\n--- Station " << (station + 1) << " ---\n";
    TextTable table({"hour", "P(Incentive)", "P(Always)", "P(None)"});
    for (std::size_t h = 0; h < 24; h += 2) {
      table.begin_row()
          .add_int(static_cast<long long>(h))
          .add_double(curves.p_incentive[h], 3)
          .add_double(curves.p_always[h], 3)
          .add_double(curves.p_none[h], 3);
    }
    table.print(std::cout);
    if (!csv_dir.empty()) {
      std::vector<double> hours(24);
      for (std::size_t h = 0; h < 24; ++h) hours[h] = static_cast<double>(h);
      write_csv(csv_dir + "/fig11_station" + std::to_string(station + 1) + ".csv",
                {"hour", "p_incentive", "p_always", "p_none"},
                {hours, curves.p_incentive, curves.p_always, curves.p_none});
    }
  }
  std::cout << "\nPaper shape: Incentive probability concentrates at night (esp. the\n"
               "evening), Always dominates daytime slots, None is largest overall.\n";
  return 0;
}
