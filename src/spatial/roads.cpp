#include "spatial/roads.hpp"

#include "common/elementary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace ecthub::spatial {

double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double Segment::length() const { return distance(a, b); }

double distance_to_segment(const Point& p, const Segment& s) {
  return distance(p, closest_point_on_segment(p, s));
}

RoadNetwork::RoadNetwork(RoadNetworkConfig cfg, Rng rng) : cfg_(cfg) {
  if (cfg_.region_km <= 0.0) throw std::invalid_argument("RoadNetworkConfig: region_km <= 0");
  if (cfg_.num_cities < 2) throw std::invalid_argument("RoadNetworkConfig: need >= 2 cities");

  cities_.reserve(cfg_.num_cities);
  for (std::size_t i = 0; i < cfg_.num_cities; ++i) {
    cities_.push_back({rng.uniform(0.1, 0.9) * cfg_.region_km,
                       rng.uniform(0.1, 0.9) * cfg_.region_km});
  }
  // Highways: connect each city to its nearest not-yet-connected peer, then a
  // few extra long links for redundancy — a crude but road-like topology.
  for (std::size_t i = 1; i < cities_.size(); ++i) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j < i; ++j) {
      const double d = distance(cities_[i], cities_[j]);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    segments_.push_back({cities_[i], cities_[best]});
  }
  const std::size_t extra_links = cfg_.num_cities / 2;
  for (std::size_t k = 0; k < extra_links; ++k) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cities_.size()) - 1));
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cities_.size()) - 1));
    if (i != j) segments_.push_back({cities_[i], cities_[j]});
  }
  // Local roads radiating from each city.
  for (const auto& c : cities_) {
    for (std::size_t k = 0; k < cfg_.local_roads_per_city; ++k) {
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double len = rng.uniform(0.4, 1.0) * cfg_.local_road_km;
      Point end{std::clamp(c.x + len * elementary::cos(angle), 0.0, cfg_.region_km),
                std::clamp(c.y + len * elementary::sin(angle), 0.0, cfg_.region_km)};
      segments_.push_back({c, end});
    }
  }
}

Point closest_point_on_segment(const Point& p, const Segment& s) {
  const double dx = s.b.x - s.a.x, dy = s.b.y - s.a.y;
  const double len_sq = dx * dx + dy * dy;
  if (len_sq == 0.0) return s.a;
  double t = ((p.x - s.a.x) * dx + (p.y - s.a.y) * dy) / len_sq;
  t = std::clamp(t, 0.0, 1.0);
  return {s.a.x + t * dx, s.a.y + t * dy};
}

double RoadNetwork::distance_to_nearest_road(const Point& p) const {
  double best = std::numeric_limits<double>::max();
  for (const auto& s : segments_) best = std::min(best, distance_to_segment(p, s));
  return best;
}

Point RoadNetwork::closest_point_on_roads(const Point& p) const {
  double best = std::numeric_limits<double>::max();
  Point snap = p;
  for (const auto& s : segments_) {
    const double d = distance_to_segment(p, s);
    if (d < best) {
      best = d;
      snap = closest_point_on_segment(p, s);
    }
  }
  return snap;
}

double RoadNetwork::total_length() const {
  double total = 0.0;
  for (const auto& s : segments_) total += s.length();
  return total;
}

}  // namespace ecthub::spatial
