#include "core/hub_config.hpp"

namespace ecthub::core {

HubConfig HubConfig::urban(std::string name, std::uint64_t seed) {
  HubConfig cfg;
  cfg.name = std::move(name);
  cfg.seed = seed;
  cfg.plant = renewables::PlantConfig::urban();
  cfg.traffic.area = traffic::AreaType::kMixed;
  cfg.station.num_plugs = 2;
  cfg.ev_popularity = 0.9;
  cfg.ev_evening_sensitivity = 0.7;
  return cfg;
}

HubConfig HubConfig::rural(std::string name, std::uint64_t seed) {
  HubConfig cfg;
  cfg.name = std::move(name);
  cfg.seed = seed;
  cfg.plant = renewables::PlantConfig::rural();
  cfg.traffic.area = traffic::AreaType::kHighway;
  cfg.station.num_plugs = 2;
  cfg.station.plug_rate_kw = 11.0;  // highway sites install faster chargers
  cfg.ev_popularity = 0.6;
  cfg.ev_evening_sensitivity = 0.5;
  // Rural sites see stronger and steadier wind.
  cfg.weather.wind.mean_speed_ms = 8.0;
  return cfg;
}

std::vector<HubConfig> default_fleet(std::uint64_t base_seed) {
  std::vector<HubConfig> fleet;
  fleet.reserve(12);
  for (std::size_t i = 0; i < 12; ++i) {
    const std::uint64_t seed = base_seed + 1000 * (i + 1);
    const std::string name = "Hub" + std::to_string(i + 1);
    HubConfig cfg = (i % 3 == 2) ? HubConfig::rural(name, seed) : HubConfig::urban(name, seed);
    cfg.station.station_id = i;
    // Heterogeneity across the fleet: demand scale, price sensitivity,
    // commuter share and battery size all vary.
    cfg.ev_popularity = 0.68 + 0.04 * static_cast<double>(i % 8);
    cfg.ev_evening_sensitivity = 0.50 + 0.05 * static_cast<double>(i % 7);
    cfg.ev_evening_commuter = 0.15 + 0.07 * static_cast<double>(i % 6);
    cfg.battery.capacity_kwh = 80.0 + 20.0 * static_cast<double>(i % 4);
    fleet.push_back(std::move(cfg));
  }
  return fleet;
}

}  // namespace ecthub::core
