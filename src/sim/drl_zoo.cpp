#include "sim/drl_zoo.hpp"

#include "common/rng.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::sim {

namespace {

/// Stream tags keeping specialist, generalist, and lane seeds disjoint.
constexpr std::uint64_t kSpecialistTag = 0x5bec1a11ULL;
constexpr std::uint64_t kGeneralistTag = 0x6e4e7a11ULL;

core::DrlTrainLane make_lane(const ScenarioRegistry& registry, const std::string& key,
                             std::size_t key_index, std::size_t replica,
                             const core::DrlFleetTrainConfig& cfg) {
  const Scenario& scenario = registry.at(key);
  core::DrlTrainLane lane;
  lane.hub = scenario.make_hub(
      key + "-zoo-" + std::to_string(replica),
      mix_seed(mix_seed(cfg.seed, key_index), replica));
  lane.env = scenario.env;
  lane.env.episode_days = cfg.env.episode_days;
  return lane;
}

void check_layout(const core::DrlTrainLane& lane, const core::HubEnvConfig& reference_env) {
  if (lane.env.slots_per_day != reference_env.slots_per_day ||
      lane.env.lookback != reference_env.lookback) {
    throw std::invalid_argument(
        "train_actor_zoo: presets disagree on the observation layout");
  }
}

}  // namespace

ActorZoo train_actor_zoo(const ScenarioRegistry& registry, std::vector<std::string> keys,
                         const core::DrlFleetTrainConfig& cfg) {
  if (cfg.train_hubs == 0) throw std::invalid_argument("train_actor_zoo: train_hubs == 0");
  if (keys.empty()) keys = registry.keys();
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const std::string& key : keys) (void)registry.at(key);  // fail fast on unknowns

  ActorZoo zoo;
  zoo.keys = keys;

  core::DrlFleetTrainConfig fleet = cfg;
  const core::HubEnvConfig& reference_env = registry.at(keys.front()).env;

  std::vector<core::DrlTrainLane> generalist_lanes;
  generalist_lanes.reserve(keys.size() * cfg.train_hubs);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::vector<core::DrlTrainLane> lanes;
    lanes.reserve(cfg.train_hubs);
    for (std::size_t r = 0; r < cfg.train_hubs; ++r) {
      core::DrlTrainLane lane = make_lane(registry, keys[i], i, r, cfg);
      check_layout(lane, reference_env);
      generalist_lanes.push_back(lane);
      lanes.push_back(std::move(lane));
    }
    fleet.seed = mix_seed(mix_seed(cfg.seed, kSpecialistTag), i);
    zoo.specialists.emplace(keys[i], core::train_drl_checkpoint(lanes, fleet));
  }

  // The generalist sees every preset each iteration: lanes are ordered
  // (key 0 replicas, key 1 replicas, ...) so the merged rollout interleaves
  // all operating regimes in one update batch.
  fleet.seed = mix_seed(cfg.seed, kGeneralistTag);
  zoo.generalist = core::train_drl_checkpoint(generalist_lanes, fleet);
  return zoo;
}

}  // namespace ecthub::sim
