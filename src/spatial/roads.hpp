// Synthetic road-network generator — substitute for the OpenStreetMap layer
// of the paper's Fig. 1 (main roads + base stations in Texas).
//
// Roads are polylines on a square region: a handful of long inter-city
// highways connecting random city anchors plus local segments around each
// city.  What Fig. 1 uses the map for is a single spatial statistic — base
// stations cluster near roads — so segment-level geometry is all we need.
#pragma once

#include "common/rng.hpp"

#include <vector>

namespace ecthub::spatial {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance, km: sqrt(dx * dx + dy * dy).  sqrt is correctly
/// rounded, so the result is the same on every host (hypot is not); the
/// coordinates are kilometres, far from where squaring over- or underflows.
[[nodiscard]] double distance(const Point& a, const Point& b);

struct Segment {
  Point a, b;

  [[nodiscard]] double length() const;
};

/// Distance from a point to a segment (closest-point projection).
[[nodiscard]] double distance_to_segment(const Point& p, const Segment& s);

/// The closest point on a segment to `p` — the same projection-and-clamp
/// arithmetic distance_to_segment measures, returning the point itself.
[[nodiscard]] Point closest_point_on_segment(const Point& p, const Segment& s);

struct RoadNetworkConfig {
  double region_km = 100.0;      ///< square side length
  std::size_t num_cities = 6;    ///< highway anchors
  std::size_t local_roads_per_city = 8;
  double local_road_km = 6.0;    ///< typical local segment length
};

class RoadNetwork {
 public:
  RoadNetwork(RoadNetworkConfig cfg, Rng rng);

  [[nodiscard]] const std::vector<Segment>& segments() const noexcept { return segments_; }
  [[nodiscard]] const std::vector<Point>& cities() const noexcept { return cities_; }

  /// Distance from `p` to the nearest road segment, km.
  [[nodiscard]] double distance_to_nearest_road(const Point& p) const;

  /// The snap of `p` onto the network: the closest point on any road
  /// segment.  Road-distance estimates (MetroMap adjacency) route through
  /// these snap points.
  [[nodiscard]] Point closest_point_on_roads(const Point& p) const;

  /// Total road length, km.
  [[nodiscard]] double total_length() const;

  [[nodiscard]] const RoadNetworkConfig& config() const noexcept { return cfg_; }

 private:
  RoadNetworkConfig cfg_;
  std::vector<Point> cities_;
  std::vector<Segment> segments_;
};

}  // namespace ecthub::spatial
