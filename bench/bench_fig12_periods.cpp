// Fig. 12 — predicted strata distribution over four six-hour periods.
#include "ectprice_common.hpp"

#include "common/table.hpp"

#include <iostream>

static int run(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  std::cout << "=== Fig. 12: strata distribution of four periods ===\n";
  benchx::EctPriceSetup setup = benchx::make_setup(flags);
  const std::uint64_t seed = flags.get_size("seed", 101);
  flags.check_unknown();

  causal::EctPriceModel model(setup.price_cfg, Rng(seed + 10));
  model.fit(setup.train);
  const auto preds = model.predict(setup.test);
  const auto dist = causal::period_distribution(setup.test, preds);

  const char* period_names[4] = {"00:00-06:00", "06:00-12:00", "12:00-18:00", "18:00-24:00"};
  TextTable table({"Period", "Incentive %", "Always %", "None %"});
  for (std::size_t p = 0; p < 4; ++p) {
    table.begin_row()
        .add(period_names[p])
        .add_double(dist.shares[p][1] * 100.0, 1)
        .add_double(dist.shares[p][2] * 100.0, 1)
        .add_double(dist.shares[p][0] * 100.0, 1);
  }
  table.print(std::cout);
  std::cout << "\nPaper shape (Fig. 12): Incentive share jumps in 18:00-24:00 (paper:\n"
               "41.4% vs 2.7-7.2% in other periods) — the hub should discount evenings.\n";
  return 0;
}

int main(int argc, char** argv) { return ecthub::cli_main(argc, argv, run); }
