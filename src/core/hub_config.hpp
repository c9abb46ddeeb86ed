// Configuration of one ECT-Hub: the base station, its battery point, the
// charging station, renewable plant and the stochastic environment driving
// the episode generators.
#pragma once

#include "battery/battery_pack.hpp"
#include "ev/station.hpp"
#include "power/base_station.hpp"
#include "pricing/rtp.hpp"
#include "pricing/selling.hpp"
#include "renewables/plant.hpp"
#include "traffic/generator.hpp"
#include "weather/weather.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace ecthub::core {

struct HubConfig {
  std::string name = "hub";
  std::uint64_t seed = 42;

  power::BaseStationConfig bs;
  battery::BatteryConfig battery;
  ev::StationConfig station;
  renewables::PlantConfig plant;
  traffic::TrafficConfig traffic;
  weather::WeatherConfig weather;
  pricing::RtpConfig rtp;
  pricing::SellingConfig selling;

  /// Behaviour profile of the co-located charging station.
  double ev_popularity = 0.8;
  double ev_evening_sensitivity = 0.7;
  /// Evening Always mass (commuters charging after work regardless of price);
  /// discounting those hours costs pure margin.
  double ev_evening_commuter = 0.3;

  /// Estimated grid recovery time T_r in hours (Eq. 6 reserve sizing).
  double recovery_hours = 4.0;

  /// Factory presets.  Urban hubs carry rooftop PV and dense traffic; rural
  /// hubs carry PV + WT with highway-style traffic (paper Fig. 6).
  static HubConfig urban(std::string name, std::uint64_t seed);
  static HubConfig rural(std::string name, std::uint64_t seed);
};

/// The 12-hub evaluation fleet (paper Table III): a mix of urban and rural
/// sites with heterogeneous demand profiles, deterministically seeded.
[[nodiscard]] std::vector<HubConfig> default_fleet(std::uint64_t base_seed = 7);

}  // namespace ecthub::core
