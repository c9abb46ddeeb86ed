// Fig. 1 — spatial overlap between main roads and base stations.
//
// The paper motivates the ECT-Hub design with a Texas map showing BS sites
// clustering along roads.  We regenerate the statistic behind the picture:
// base stations placed with road bias sit far closer to roads than uniform
// chance, so EV traffic naturally passes them.
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "spatial/placement.hpp"
#include "spatial/roads.hpp"

#include <iostream>

static int run(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::size_t stations = flags.get_size("stations", 2500);
  const std::uint64_t seed = flags.get_size("seed", 7);
  flags.check_unknown();

  std::cout << "=== Fig. 1: road / base-station spatial overlap ===\n";
  std::cout << "Synthetic 100x100 km region (OpenStreetMap/OpenCellID substitute)\n\n";

  spatial::RoadNetworkConfig road_cfg;
  const spatial::RoadNetwork roads(road_cfg, Rng(seed));

  TextTable table({"BS placement", "mean dist (km)", "median (km)", "within 1 km",
                   "uniform mean (km)", "clustering ratio"});
  for (const double bias : {0.8, 0.5, 0.0}) {
    spatial::PlacementConfig cfg;
    cfg.num_stations = stations;
    cfg.road_biased_fraction = bias;
    const spatial::BsPlacement placement(cfg, roads, Rng(seed + 1));
    const spatial::OverlapStats st = placement.overlap_stats(roads, 20000, Rng(seed + 2));
    table.begin_row()
        .add(std::to_string(static_cast<int>(bias * 100)) + "% road-biased")
        .add_double(st.mean_distance_km)
        .add_double(st.median_distance_km)
        .add_double(st.within_1km_fraction * 100.0, 1)
        .add_double(st.uniform_mean_distance_km)
        .add_double(st.clustering_ratio);
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: deployed BSs visually coincide with main roads; here the\n"
               "road-biased placement sits several times closer to roads than uniform\n"
               "(clustering ratio >> 1), reproducing the Fig. 1 observation.\n";
  return 0;
}

int main(int argc, char** argv) { return ecthub::cli_main(argc, argv, run); }
