#include "spatial/placement.hpp"

#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::spatial {

BsPlacement::BsPlacement(PlacementConfig cfg, const RoadNetwork& roads, Rng rng) : cfg_(cfg) {
  if (cfg_.num_stations == 0) throw std::invalid_argument("PlacementConfig: num_stations == 0");
  // Written so that NaN fails.
  if (!(cfg_.road_biased_fraction >= 0.0 && cfg_.road_biased_fraction <= 1.0)) {
    throw std::invalid_argument("PlacementConfig: road_biased_fraction out of [0, 1]");
  }
  if (!(std::isfinite(cfg_.road_jitter_km) && cfg_.road_jitter_km >= 0.0)) {
    throw std::invalid_argument("PlacementConfig: road_jitter_km must be finite and >= 0");
  }
  const double region = roads.config().region_km;
  const auto& segments = roads.segments();
  // Length-weighted segment sampling so long highways attract more sites.
  std::vector<double> weights;
  weights.reserve(segments.size());
  for (const auto& s : segments) weights.push_back(s.length());

  stations_.reserve(cfg_.num_stations);
  for (std::size_t i = 0; i < cfg_.num_stations; ++i) {
    if (rng.bernoulli(cfg_.road_biased_fraction) && !segments.empty()) {
      const Segment& s = segments[rng.categorical(weights)];
      const double t = rng.uniform();
      Point p{s.a.x + t * (s.b.x - s.a.x), s.a.y + t * (s.b.y - s.a.y)};
      p.x = std::clamp(p.x + rng.normal(0.0, cfg_.road_jitter_km), 0.0, region);
      p.y = std::clamp(p.y + rng.normal(0.0, cfg_.road_jitter_km), 0.0, region);
      stations_.push_back(p);
    } else {
      stations_.push_back({rng.uniform(0.0, region), rng.uniform(0.0, region)});
    }
  }
}

OverlapStats BsPlacement::overlap_stats(const RoadNetwork& roads,
                                        std::size_t reference_samples, Rng rng) const {
  if (reference_samples == 0) {
    throw std::invalid_argument("overlap_stats: reference_samples == 0");
  }
  OverlapStats st;
  std::vector<double> bs_dist;
  bs_dist.reserve(stations_.size());
  std::size_t within = 0;
  for (const auto& p : stations_) {
    const double d = roads.distance_to_nearest_road(p);
    bs_dist.push_back(d);
    if (d <= 1.0) ++within;
  }
  st.mean_distance_km = stats::mean(bs_dist);
  st.median_distance_km = stats::percentile(bs_dist, 50.0);
  st.within_1km_fraction = static_cast<double>(within) / static_cast<double>(stations_.size());

  const double region = roads.config().region_km;
  std::vector<double> ref_dist;
  ref_dist.reserve(reference_samples);
  for (std::size_t i = 0; i < reference_samples; ++i) {
    const Point p{rng.uniform(0.0, region), rng.uniform(0.0, region)};
    ref_dist.push_back(roads.distance_to_nearest_road(p));
  }
  st.uniform_mean_distance_km = stats::mean(ref_dist);
  st.clustering_ratio = st.mean_distance_km > 0.0
                            ? st.uniform_mean_distance_km / st.mean_distance_km
                            : 0.0;
  return st;
}

}  // namespace ecthub::spatial
