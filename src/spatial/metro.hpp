// MetroMap: a spatially generated metro of ECT-Hubs.
//
// The paper's hubs sit on a road network (Fig. 1: main roads + base stations
// in Texas); until now the spatial substrate only produced that one overlap
// statistic while every fleet the engine ran was an i.i.d. bag of hubs.
// MetroMap closes the loop: it shapes N per-hub `HubConfig`s (apply_site)
// from BsPlacement density on a RoadNetwork — sites in dense base-station
// country become urban, high-traffic hubs; sparse sites become rural — plus a
// road-distance neighbor adjacency that the fleet runner's CouplingBus
// routes exported demand over.
//
// A MetroMap is a pure function of (MetroConfig, seed): every stochastic
// stage draws from its own mix_seed(seed, stage) stream, so the same inputs
// produce the same map bit-for-bit across processes — the same contract the
// ScenarioRegistry factories honour (tests/test_spatial.cpp pins a golden
// checksum).
#pragma once

#include "core/hub_config.hpp"
#include "spatial/placement.hpp"
#include "spatial/roads.hpp"

#include <cstdint>
#include <vector>

namespace ecthub::spatial {

struct MetroConfig {
  std::size_t num_hubs = 16;
  /// Road-graph out-degree: each hub exports to its k nearest neighbors by
  /// road distance.
  std::size_t neighbors_per_hub = 3;
  RoadNetworkConfig roads;
  /// Base-station survey used as the density field (the Fig. 1 deployment).
  std::size_t survey_stations = 600;
  double road_biased_fraction = 0.8;
  double road_jitter_km = 1.0;
  /// Survey stations within this radius of a site define its density.
  double density_radius_km = 8.0;
  /// Top fraction of hubs by density classified urban; the rest rural.
  double urban_fraction = 0.5;
  /// Road distance ~ snap + detour_factor * euclidean between snap points.
  double detour_factor = 1.2;
};

/// One generated hub site.
struct MetroHub {
  Point site;
  double density = 0.0;  ///< survey density, normalized to [0, 1] over the metro
  bool urban = false;
  std::vector<std::size_t> neighbors;  ///< k nearest hub ids by road distance
  std::vector<double> road_km;         ///< road distance to each neighbor
};

class MetroMap {
 public:
  /// Generates the metro deterministically from (cfg, seed).
  MetroMap(MetroConfig cfg, std::uint64_t seed);

  [[nodiscard]] const std::vector<MetroHub>& hubs() const noexcept { return hubs_; }
  [[nodiscard]] const RoadNetwork& roads() const noexcept { return roads_; }
  [[nodiscard]] const MetroConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Overlays site `i` onto an existing HubConfig (e.g. a scenario-factory
  /// hub): plug count follows the density class and demand intensity scales
  /// with density, while the scenario's character (plant, prices, weather)
  /// is preserved.
  void apply_site(std::size_t i, core::HubConfig& hub) const;

  /// Through-traffic arrival rate for hub `i` (expected passing-EV arrivals
  /// per slot at full network load) — the exogenous demand stream the
  /// coupling layer exchanges between neighbors.
  [[nodiscard]] double through_rate(std::size_t i) const;

  /// The metro-wide front seed: hubs in one metro key their correlated
  /// weather/outage fronts off this stream (0 would mean "no front").
  [[nodiscard]] std::uint64_t front_seed() const noexcept;

  /// Deterministic digest over sites, densities, classes and adjacency in
  /// fixed order — the golden-checksum hook for reproducibility tests.
  [[nodiscard]] double checksum() const;

 private:
  [[nodiscard]] static MetroConfig validated(MetroConfig cfg);

  MetroConfig cfg_;
  std::uint64_t seed_;
  RoadNetwork roads_;
  std::vector<MetroHub> hubs_;
};

}  // namespace ecthub::spatial
