// Pricing campaign: train ECT-Price on a synthetic charging history and print
// the weekly discount schedule it recommends for one station — the workflow
// an ECT-Hub operator would run before enabling dynamic pricing.
//
//   $ ./pricing_campaign [--days 120] [--epochs 2] [--station 0]
#include "causal/ect_price.hpp"
#include "causal/evaluate.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "ev/dataset.hpp"

#include <iostream>
#include <vector>

static int run(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::size_t station = flags.get_size("station", 0);

  ev::DatasetConfig dcfg;
  dcfg.num_days = flags.get_size("days", 120);
  const std::size_t epochs = flags.get_count("epochs", 2);
  const double discount_fraction = flags.get_double("discount", 0.2);
  flags.check_unknown();
  if (station >= dcfg.num_stations) {
    std::cerr << "pricing_campaign: --station must be < " << dcfg.num_stations
              << ", the number of stations\n";
    return 1;
  }
  if (dcfg.num_days < 2) {  // the 80/20 split needs a training and a test day
    std::cerr << "pricing_campaign: --days must be >= 2\n";
    return 1;
  }
  if (!(discount_fraction > 0.0 && discount_fraction < 1.0)) {
    std::cerr << "pricing_campaign: --discount must be in (0, 1)\n";
    return 1;
  }
  std::cout << "generating charging history (" << dcfg.num_stations << " stations x "
            << dcfg.num_days << " days)...\n";
  const ev::ChargingDataset dataset(dcfg, Rng(404));
  const auto split = dataset.split(0.8);
  const auto train = causal::encode(split.train);
  const auto test = causal::encode(split.test);

  causal::EctPriceConfig cfg;
  cfg.ncf.num_stations = dcfg.num_stations;
  cfg.epochs = epochs;
  causal::EctPriceModel model(cfg, Rng(405));
  std::cout << "training ECT-Price (" << cfg.epochs << " epochs over " << train.size()
            << " items)...\n";
  const auto stats = model.fit(train);
  std::cout << "final epoch loss: " << stats.epoch_loss.back() << "\n";

  const auto preds = model.predict(test);
  std::cout << "stratification accuracy on held-out items: "
            << causal::strata_accuracy(test, preds) * 100.0 << "%\n\n";

  std::cout << "=== Recommended weekday discount schedule for station " << station
            << " (discount " << discount_fraction * 100 << "%) ===\n";
  std::vector<causal::StrataPrediction> hours;
  for (std::size_t h = 0; h < 24; ++h) {
    hours.push_back(model.predict_one(station, causal::encode_time(h)));
  }
  const std::vector<bool> discount = causal::decide_by_strata(hours, discount_fraction);
  TextTable table({"hour", "P(Incentive)", "P(Always)", "decision"});
  for (std::size_t h = 0; h < hours.size(); ++h) {
    table.begin_row()
        .add_int(static_cast<long long>(h))
        .add_double(hours[h].p_incentive, 3)
        .add_double(hours[h].p_always, 3)
        .add(discount[h] ? "DISCOUNT" : "full price");
  }
  table.print(std::cout);
  std::cout << "\nDiscounts land on price-sensitive evening hours; busy daytime hours\n"
               "(Always Charge) keep full price — no revenue is given away.\n";
  return 0;
}

int main(int argc, char** argv) { return ecthub::cli_main(argc, argv, run); }
