// Tests for the spatial substrate (Fig. 1: road/BS overlap) and the
// MetroMap generator layered on top of it.
#include "spatial/metro.hpp"
#include "spatial/placement.hpp"
#include "spatial/roads.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>

namespace ecthub::spatial {
namespace {

TEST(Segment, Length) {
  const Segment s{{0, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(s.length(), 5.0);
}

TEST(DistanceToSegment, PerpendicularProjection) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(distance_to_segment({5, 3}, s), 3.0);
}

TEST(DistanceToSegment, ClampsToEndpoints) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(distance_to_segment({-3, 4}, s), 5.0);
  EXPECT_DOUBLE_EQ(distance_to_segment({13, 4}, s), 5.0);
}

TEST(DistanceToSegment, DegenerateSegmentIsPointDistance) {
  const Segment s{{1, 1}, {1, 1}};
  EXPECT_DOUBLE_EQ(distance_to_segment({4, 5}, s), 5.0);
}

TEST(RoadNetwork, GeneratesConnectedTopology) {
  const RoadNetwork net(RoadNetworkConfig{}, Rng(1));
  EXPECT_EQ(net.cities().size(), RoadNetworkConfig{}.num_cities);
  // At least a spanning tree of highways plus local roads.
  EXPECT_GE(net.segments().size(),
            RoadNetworkConfig{}.num_cities - 1 +
                RoadNetworkConfig{}.num_cities * RoadNetworkConfig{}.local_roads_per_city);
  EXPECT_GT(net.total_length(), 0.0);
}

TEST(RoadNetwork, PointsStayInRegion) {
  RoadNetworkConfig cfg;
  cfg.region_km = 50.0;
  const RoadNetwork net(cfg, Rng(2));
  for (const auto& s : net.segments()) {
    for (const Point& p : {s.a, s.b}) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 50.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 50.0);
    }
  }
}

TEST(RoadNetwork, DistanceToNearestRoadIsZeroOnRoad) {
  const RoadNetwork net(RoadNetworkConfig{}, Rng(3));
  const Segment& s = net.segments().front();
  EXPECT_NEAR(net.distance_to_nearest_road(s.a), 0.0, 1e-9);
}

TEST(RoadNetwork, RejectsBadConfig) {
  RoadNetworkConfig bad;
  bad.region_km = 0.0;
  EXPECT_THROW(RoadNetwork(bad, Rng(1)), std::invalid_argument);
  RoadNetworkConfig bad2;
  bad2.num_cities = 1;
  EXPECT_THROW(RoadNetwork(bad2, Rng(1)), std::invalid_argument);
}

TEST(BsPlacement, GeneratesRequestedCount) {
  const RoadNetwork net(RoadNetworkConfig{}, Rng(4));
  PlacementConfig cfg;
  cfg.num_stations = 500;
  const BsPlacement placement(cfg, net, Rng(5));
  EXPECT_EQ(placement.stations().size(), 500u);
}

TEST(BsPlacement, RoadBiasedStationsSitCloserThanUniform) {
  // The Fig. 1 statistic: road-biased deployment clusters near roads.
  const RoadNetwork net(RoadNetworkConfig{}, Rng(6));
  PlacementConfig cfg;
  cfg.num_stations = 1000;
  cfg.road_biased_fraction = 0.9;
  const BsPlacement placement(cfg, net, Rng(7));
  const OverlapStats st = placement.overlap_stats(net, 5000, Rng(8));
  EXPECT_LT(st.mean_distance_km, st.uniform_mean_distance_km);
  EXPECT_GT(st.within_1km_fraction, 0.5);
  EXPECT_GT(st.clustering_ratio, 1.5);
}

TEST(BsPlacement, UnbiasedPlacementMatchesUniform) {
  const RoadNetwork net(RoadNetworkConfig{}, Rng(9));
  PlacementConfig cfg;
  cfg.num_stations = 2000;
  cfg.road_biased_fraction = 0.0;
  const BsPlacement placement(cfg, net, Rng(10));
  const OverlapStats st = placement.overlap_stats(net, 5000, Rng(11));
  EXPECT_NEAR(st.clustering_ratio, 1.0, 0.25);
}

TEST(BsPlacement, MoreBiasMeansMoreClustering) {
  const RoadNetwork net(RoadNetworkConfig{}, Rng(12));
  auto ratio_at = [&](double bias) {
    PlacementConfig cfg;
    cfg.num_stations = 1500;
    cfg.road_biased_fraction = bias;
    const BsPlacement placement(cfg, net, Rng(13));
    return placement.overlap_stats(net, 4000, Rng(14)).clustering_ratio;
  };
  EXPECT_GT(ratio_at(0.9), ratio_at(0.3));
}

TEST(BsPlacement, Validation) {
  const RoadNetwork net(RoadNetworkConfig{}, Rng(15));
  PlacementConfig bad;
  bad.num_stations = 0;
  EXPECT_THROW(BsPlacement(bad, net, Rng(16)), std::invalid_argument);
  PlacementConfig bad2;
  bad2.road_biased_fraction = 1.5;
  EXPECT_THROW(BsPlacement(bad2, net, Rng(17)), std::invalid_argument);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PlacementConfig nan_fraction;
  nan_fraction.road_biased_fraction = kNan;
  EXPECT_THROW(BsPlacement(nan_fraction, net, Rng(17)), std::invalid_argument);
  for (const double jitter : {-3.0, kNan, kInf}) {
    PlacementConfig bad_jitter;
    bad_jitter.road_jitter_km = jitter;
    EXPECT_THROW(BsPlacement(bad_jitter, net, Rng(17)), std::invalid_argument) << jitter;
  }
  PlacementConfig no_jitter;  // stations sit on their roads
  no_jitter.road_jitter_km = 0.0;
  EXPECT_NO_THROW(BsPlacement(no_jitter, net, Rng(17)));
  PlacementConfig ok;
  const BsPlacement placement(ok, net, Rng(18));
  EXPECT_THROW((void)placement.overlap_stats(net, 0, Rng(19)), std::invalid_argument);
}

TEST(ClosestPointOnSegment, ProjectsAndClamps) {
  const Segment s{{0, 0}, {10, 0}};
  const Point mid = closest_point_on_segment({5, 3}, s);
  EXPECT_DOUBLE_EQ(mid.x, 5.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
  const Point clamped = closest_point_on_segment({-3, 4}, s);
  EXPECT_DOUBLE_EQ(clamped.x, 0.0);
  EXPECT_DOUBLE_EQ(clamped.y, 0.0);
  const Segment degenerate{{1, 1}, {1, 1}};
  const Point snap = closest_point_on_segment({4, 5}, degenerate);
  EXPECT_DOUBLE_EQ(snap.x, 1.0);
  EXPECT_DOUBLE_EQ(snap.y, 1.0);
}

TEST(MetroMap, SeedReproducible) {
  const MetroConfig cfg;
  const MetroMap a(cfg, 42);
  const MetroMap b(cfg, 42);
  ASSERT_EQ(a.hubs().size(), b.hubs().size());
  EXPECT_DOUBLE_EQ(a.checksum(), b.checksum());
  for (std::size_t i = 0; i < a.hubs().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.hubs()[i].site.x, b.hubs()[i].site.x);
    EXPECT_EQ(a.hubs()[i].neighbors, b.hubs()[i].neighbors);
    EXPECT_DOUBLE_EQ(a.through_rate(i), b.through_rate(i));
  }
  EXPECT_EQ(a.front_seed(), b.front_seed());

  const MetroMap c(cfg, 43);
  EXPECT_NE(a.checksum(), c.checksum());
}

// Golden checksum: pins the full generation pipeline (roads, survey, sites,
// density, classification, adjacency) bit-for-bit.  If this moves, every
// downstream metro fleet moves with it — bump deliberately, never silently.
TEST(MetroMap, GoldenChecksum) {
  const MetroMap map(MetroConfig{}, 42);
  EXPECT_DOUBLE_EQ(map.checksum(), 3646.412023726497);
}

TEST(MetroMap, ClassificationAndAdjacency) {
  MetroConfig cfg;
  cfg.num_hubs = 12;
  cfg.neighbors_per_hub = 3;
  cfg.urban_fraction = 0.5;
  const MetroMap map(cfg, 7);
  ASSERT_EQ(map.hubs().size(), 12u);

  std::size_t urban = 0;
  double min_urban_density = 1.0;
  double max_rural_density = 0.0;
  for (std::size_t i = 0; i < map.hubs().size(); ++i) {
    const MetroHub& h = map.hubs()[i];
    EXPECT_GE(h.density, 0.0);
    EXPECT_LE(h.density, 1.0);
    ASSERT_EQ(h.neighbors.size(), 3u);
    ASSERT_EQ(h.road_km.size(), 3u);
    for (std::size_t k = 0; k < h.neighbors.size(); ++k) {
      EXPECT_NE(h.neighbors[k], i);
      EXPECT_LT(h.neighbors[k], map.hubs().size());
      EXPECT_GT(h.road_km[k], 0.0);
    }
    // k-nearest lists are sorted by road distance.
    EXPECT_TRUE(std::is_sorted(h.road_km.begin(), h.road_km.end()));
    EXPECT_GT(map.through_rate(i), 0.0);
    if (h.urban) {
      ++urban;
      min_urban_density = std::min(min_urban_density, h.density);
    } else {
      max_rural_density = std::max(max_rural_density, h.density);
    }
  }
  // Top half by density is urban, so every urban hub is at least as dense as
  // every rural one.
  EXPECT_EQ(urban, 6u);
  EXPECT_GE(min_urban_density, max_rural_density);
}

TEST(MetroMap, ApplySiteModulatesDemandKeepsCharacter) {
  const MetroMap map(MetroConfig{}, 42);
  // Find one urban and one rural hub.
  std::size_t urban_i = 0, rural_i = 0;
  for (std::size_t i = 0; i < map.hubs().size(); ++i) {
    (map.hubs()[i].urban ? urban_i : rural_i) = i;
  }
  core::HubConfig urban_hub = core::HubConfig::urban("u", 1);
  map.apply_site(urban_i, urban_hub);
  core::HubConfig rural_hub = core::HubConfig::rural("r", 1);
  map.apply_site(rural_i, rural_hub);
  EXPECT_EQ(urban_hub.station.num_plugs, 2u);
  EXPECT_EQ(rural_hub.station.num_plugs, 1u);
  EXPECT_GT(map.through_rate(urban_i), map.through_rate(rural_i));

  core::HubConfig overlay = core::HubConfig::urban("x", 5);
  const bool had_wt = overlay.plant.wt.has_value();
  map.apply_site(rural_i, overlay);
  EXPECT_EQ(overlay.station.station_id, rural_i);
  EXPECT_EQ(overlay.traffic.area, traffic::AreaType::kMixed);  // character preserved
  EXPECT_EQ(overlay.plant.wt.has_value(), had_wt);             // plant untouched
  EXPECT_GE(overlay.ev_popularity, 0.2);
  EXPECT_LE(overlay.ev_popularity, 0.95);
}

TEST(MetroMap, Validation) {
  MetroConfig bad;
  bad.num_hubs = 1;
  EXPECT_THROW(MetroMap(bad, 1), std::invalid_argument);
  MetroConfig bad2;
  bad2.neighbors_per_hub = bad2.num_hubs;  // k must be < num_hubs
  EXPECT_THROW(MetroMap(bad2, 1), std::invalid_argument);
  MetroConfig bad3;
  bad3.urban_fraction = 1.5;
  EXPECT_THROW(MetroMap(bad3, 1), std::invalid_argument);
  MetroConfig bad4;
  bad4.detour_factor = 0.5;
  EXPECT_THROW(MetroMap(bad4, 1), std::invalid_argument);
  // NaN fails every < and > test, so each check is written to reject it.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double radius : {0.0, -1.0, kNan, kInf}) {
    MetroConfig bad_radius;
    bad_radius.density_radius_km = radius;
    EXPECT_THROW(MetroMap(bad_radius, 1), std::invalid_argument) << radius;
  }
  MetroConfig nan_urban;
  nan_urban.urban_fraction = kNan;
  EXPECT_THROW(MetroMap(nan_urban, 1), std::invalid_argument);
  for (const double detour : {kNan, kInf}) {
    MetroConfig bad_detour;
    bad_detour.detour_factor = detour;
    EXPECT_THROW(MetroMap(bad_detour, 1), std::invalid_argument) << detour;
  }
  for (const double fraction : {kNan, -0.1}) {
    MetroConfig bad_fraction;  // reaches BsPlacement's check
    bad_fraction.road_biased_fraction = fraction;
    EXPECT_THROW(MetroMap(bad_fraction, 1), std::invalid_argument) << fraction;
  }
  MetroConfig bad_jitter;
  bad_jitter.road_jitter_km = kNan;
  EXPECT_THROW(MetroMap(bad_jitter, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ecthub::spatial
