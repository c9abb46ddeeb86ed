// Base-station placement and the road/BS overlap statistics of Fig. 1.
//
// Real deployments bias BS sites toward roads and population (the paper's
// observation: "the driving traces of EVs should highly overlap with the
// distribution of BSs").  We place a configurable fraction of stations by
// sampling a point on a road segment plus lateral jitter, the rest uniformly,
// then measure how much closer stations sit to roads than uniform chance.
#pragma once

#include "common/rng.hpp"
#include "spatial/roads.hpp"

#include <vector>

namespace ecthub::spatial {

struct PlacementConfig {
  std::size_t num_stations = 2500;
  double road_biased_fraction = 0.8;  ///< share of BSs deployed along roads
  double road_jitter_km = 1.0;        ///< lateral spread around the road
};

struct OverlapStats {
  double mean_distance_km = 0.0;          ///< BSs: mean distance to nearest road
  double median_distance_km = 0.0;
  double within_1km_fraction = 0.0;       ///< BSs within 1 km of a road
  double uniform_mean_distance_km = 0.0;  ///< same statistic for uniform points
  /// mean uniform distance / mean BS distance; > 1 indicates road clustering.
  double clustering_ratio = 0.0;
};

class BsPlacement {
 public:
  BsPlacement(PlacementConfig cfg, const RoadNetwork& roads, Rng rng);

  [[nodiscard]] const std::vector<Point>& stations() const noexcept { return stations_; }

  /// Computes the overlap statistics against `roads` using `reference_samples`
  /// uniform points as the null model.
  [[nodiscard]] OverlapStats overlap_stats(const RoadNetwork& roads,
                                           std::size_t reference_samples, Rng rng) const;

  [[nodiscard]] const PlacementConfig& config() const noexcept { return cfg_; }

 private:
  PlacementConfig cfg_;
  std::vector<Point> stations_;
};

}  // namespace ecthub::spatial
