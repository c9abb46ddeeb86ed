// Fig. 2 — active power of renewable generation (WT, PV, total) over 2 days.
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "renewables/plant.hpp"
#include "weather/weather.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::uint64_t seed = flags.get_size("seed", 21);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.check_unknown();

  std::cout << "=== Fig. 2: active power of renewable power generation (2 days) ===\n\n";

  const TimeGrid grid(2, 24);
  weather::WeatherConfig wx_cfg;
  weather::WeatherGenerator wx_gen(wx_cfg, Rng(seed));
  const weather::WeatherSeries wx = wx_gen.generate(grid);

  const renewables::RenewablePlant plant(renewables::PlantConfig::rural());
  const renewables::GenerationSeries gen = plant.generate(wx);

  TextTable table({"hour", "WT (W)", "PV (W)", "Total (W)"});
  for (std::size_t t = 0; t < grid.size(); ++t) {
    table.begin_row()
        .add_int(static_cast<long long>(t))
        .add_double(gen.wt_w[t], 0)
        .add_double(gen.pv_w[t], 0)
        .add_double(gen.total_w[t], 0);
  }
  table.print(std::cout);

  // Shape checks mirrored from the paper's figure: PV is zero at night and
  // peaks near noon; wind is volatile around its mean; the total tracks both.
  std::vector<double> pv_night, pv_noon;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double h = grid.hour_of_day(t);
    if (h < 5.0 || h > 21.0) pv_night.push_back(gen.pv_w[t]);
    if (h >= 11.0 && h <= 13.0) pv_noon.push_back(gen.pv_w[t]);
  }
  std::cout << "\nPV night mean: " << stats::mean(pv_night)
            << " W, PV noon mean: " << stats::mean(pv_noon) << " W\n";
  std::cout << "WT mean: " << stats::mean(gen.wt_w)
            << " W, WT stddev: " << stats::stddev(gen.wt_w)
            << " W (volatility, cf. paper: 'great volatility and hard to predict')\n";

  if (!csv_dir.empty()) {
    std::vector<double> hours(grid.size());
    for (std::size_t t = 0; t < grid.size(); ++t) hours[t] = static_cast<double>(t);
    write_csv(csv_dir + "/fig02_renewables.csv", {"hour", "wt_w", "pv_w", "total_w"},
              {hours, gen.wt_w, gen.pv_w, gen.total_w});
    std::cout << "CSV written to " << csv_dir << "/fig02_renewables.csv\n";
  }
  return 0;
}
