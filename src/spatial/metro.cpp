#include "spatial/metro.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ecthub::spatial {

namespace {
// Each generation stage owns an independent mix_seed stream, so adding a
// stage never perturbs the draws of another.
constexpr std::uint64_t kRoadsStream = 0x6d657472'6f726f61ULL;   // "metroroa"
constexpr std::uint64_t kSurveyStream = 0x6d657472'6f737572ULL;  // "metrosur"
constexpr std::uint64_t kSitesStream = 0x6d657472'6f736974ULL;   // "metrosit"
constexpr std::uint64_t kFrontStream = 0x6d657472'6f667274ULL;   // "metrofrt"
}  // namespace

MetroConfig MetroMap::validated(MetroConfig cfg) {
  if (cfg.num_hubs < 2) throw std::invalid_argument("MetroConfig: num_hubs < 2");
  if (cfg.neighbors_per_hub == 0 || cfg.neighbors_per_hub >= cfg.num_hubs) {
    throw std::invalid_argument("MetroConfig: neighbors_per_hub out of [1, num_hubs)");
  }
  if (cfg.survey_stations == 0) {
    throw std::invalid_argument("MetroConfig: survey_stations == 0");
  }
  // Written so that NaN fails.
  if (!(std::isfinite(cfg.density_radius_km) && cfg.density_radius_km > 0.0)) {
    throw std::invalid_argument("MetroConfig: density_radius_km must be finite and > 0");
  }
  if (!(cfg.urban_fraction >= 0.0 && cfg.urban_fraction <= 1.0)) {
    throw std::invalid_argument("MetroConfig: urban_fraction out of [0, 1]");
  }
  if (!(std::isfinite(cfg.detour_factor) && cfg.detour_factor >= 1.0)) {
    throw std::invalid_argument("MetroConfig: detour_factor must be finite and >= 1");
  }
  return cfg;
}

MetroMap::MetroMap(MetroConfig cfg, std::uint64_t seed)
    : cfg_(validated(std::move(cfg))),
      seed_(seed),
      roads_(cfg_.roads, Rng(mix_seed(seed, kRoadsStream))) {
  // The density field: the Fig. 1 base-station deployment, surveyed once.
  PlacementConfig survey_cfg;
  survey_cfg.num_stations = cfg_.survey_stations;
  survey_cfg.road_biased_fraction = cfg_.road_biased_fraction;
  survey_cfg.road_jitter_km = cfg_.road_jitter_km;
  const BsPlacement survey(survey_cfg, roads_, Rng(mix_seed(seed, kSurveyStream)));

  // Hub sites follow the same road-biased deployment process as the BSs —
  // ECT-Hubs are co-located with base stations.
  PlacementConfig site_cfg;
  site_cfg.num_stations = cfg_.num_hubs;
  site_cfg.road_biased_fraction = cfg_.road_biased_fraction;
  site_cfg.road_jitter_km = cfg_.road_jitter_km;
  const BsPlacement sites(site_cfg, roads_, Rng(mix_seed(seed, kSitesStream)));

  hubs_.resize(cfg_.num_hubs);
  const double r2 = cfg_.density_radius_km * cfg_.density_radius_km;
  std::size_t max_count = 1;
  std::vector<std::size_t> counts(cfg_.num_hubs, 0);
  for (std::size_t i = 0; i < cfg_.num_hubs; ++i) {
    hubs_[i].site = sites.stations()[i];
    for (const Point& bs : survey.stations()) {
      const double dx = bs.x - hubs_[i].site.x, dy = bs.y - hubs_[i].site.y;
      if (dx * dx + dy * dy <= r2) ++counts[i];
    }
    max_count = std::max(max_count, counts[i]);
  }
  for (std::size_t i = 0; i < cfg_.num_hubs; ++i) {
    hubs_[i].density = static_cast<double>(counts[i]) / static_cast<double>(max_count);
  }

  // Urban classification: the densest urban_fraction of sites, ties broken
  // by index so the class assignment is deterministic.
  std::vector<std::size_t> order(cfg_.num_hubs);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (hubs_[a].density != hubs_[b].density) return hubs_[a].density > hubs_[b].density;
    return a < b;
  });
  const auto num_urban = static_cast<std::size_t>(
      std::llround(cfg_.urban_fraction * static_cast<double>(cfg_.num_hubs)));
  for (std::size_t rank = 0; rank < num_urban && rank < order.size(); ++rank) {
    hubs_[order[rank]].urban = true;
  }

  // Road-distance adjacency: reach the road, drive it (euclidean between the
  // snap points scaled by a detour factor), leave the road.
  std::vector<Point> snaps(cfg_.num_hubs);
  std::vector<double> off_road(cfg_.num_hubs);
  for (std::size_t i = 0; i < cfg_.num_hubs; ++i) {
    snaps[i] = roads_.closest_point_on_roads(hubs_[i].site);
    off_road[i] = roads_.distance_to_nearest_road(hubs_[i].site);
  }
  std::vector<std::pair<double, std::size_t>> nearest;
  nearest.reserve(cfg_.num_hubs - 1);
  for (std::size_t i = 0; i < cfg_.num_hubs; ++i) {
    nearest.clear();
    for (std::size_t j = 0; j < cfg_.num_hubs; ++j) {
      if (j == i) continue;
      const double drive = distance(snaps[i], snaps[j]);
      nearest.emplace_back(off_road[i] + cfg_.detour_factor * drive + off_road[j], j);
    }
    std::sort(nearest.begin(), nearest.end());
    hubs_[i].neighbors.reserve(cfg_.neighbors_per_hub);
    hubs_[i].road_km.reserve(cfg_.neighbors_per_hub);
    for (std::size_t k = 0; k < cfg_.neighbors_per_hub; ++k) {
      hubs_[i].neighbors.push_back(nearest[k].second);
      hubs_[i].road_km.push_back(nearest[k].first);
    }
  }
}

void MetroMap::apply_site(std::size_t i, core::HubConfig& hub) const {
  const MetroHub& h = hubs_.at(i);
  hub.station.station_id = i;
  // Dense urban sites install a second plug; sparse rural sites run one.
  hub.station.num_plugs = h.urban ? 2 : 1;
  // Demand intensity follows the density field: more base stations around a
  // site means more people, more network load and more EVs.
  hub.ev_popularity = std::clamp(hub.ev_popularity * (0.7 + 0.5 * h.density), 0.2, 0.95);
  hub.traffic.min_load = std::clamp(hub.traffic.min_load + 0.05 * h.density, 0.0, 0.5);
}

double MetroMap::through_rate(std::size_t i) const {
  const MetroHub& h = hubs_.at(i);
  // Passing EVs per slot at full network load: urban corridors see more
  // through-traffic, and density raises both classes.
  return (h.urban ? 0.9 : 0.4) * (0.4 + 0.8 * h.density);
}

std::uint64_t MetroMap::front_seed() const noexcept {
  return mix_seed(seed_, kFrontStream);
}

double MetroMap::checksum() const {
  double sum = 0.0;
  for (const MetroHub& h : hubs_) {
    sum += h.site.x + 2.0 * h.site.y + 3.0 * h.density + (h.urban ? 5.0 : 0.0);
    for (std::size_t k = 0; k < h.neighbors.size(); ++k) {
      sum += 0.001 * static_cast<double>(h.neighbors[k]) + h.road_km[k];
    }
  }
  return sum;
}

}  // namespace ecthub::spatial
