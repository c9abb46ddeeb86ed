// Actor zoo: a family of DRL checkpoints trained per scenario preset.
//
// Fleet sweeps so far deployed one checkpoint everywhere.  The zoo trains a
// *specialist* actor for each ScenarioRegistry preset (PPO on train_hubs
// lockstep replica lanes of that preset) plus one *generalist* trained on a
// mixed fleet with lanes drawn from every preset — the cross-scenario
// baseline a specialist has to beat to justify its storage.
//
// Every actor trains with core::train_drl_checkpoint's recipe, configured by
// the one core::DrlFleetTrainConfig.  Everything is deterministic: lane hub
// seeds and PPO seeds are mixed from DrlFleetTrainConfig::seed and the
// preset's index in the sorted key list, so the same (registry, keys, cfg)
// triple always yields bit-identical checkpoint blobs at any collector
// thread count.
#pragma once

#include "core/fleet.hpp"
#include "policy/drl_policy.hpp"
#include "sim/scenario.hpp"

#include <map>
#include <string>
#include <vector>

namespace ecthub::sim {

struct ActorZoo {
  std::vector<std::string> keys;  ///< presets covered, sorted
  std::map<std::string, policy::DrlCheckpoint> specialists;
  policy::DrlCheckpoint generalist;  ///< trained across every preset's lanes
};

/// Trains one specialist per key plus the generalist.  Each preset gets
/// `cfg.train_hubs` replica lanes running the preset's own env for
/// `cfg.env.episode_days` days (the rest of `cfg.env` is unused); every actor
/// runs `cfg.iterations` PPO cycles under `cfg.ppo` on a
/// `cfg.collector_threads` crew.  Keys are deduplicated and sorted before
/// seed derivation; empty `keys` means every key in the registry.  Throws
/// std::out_of_range on an unknown key and std::invalid_argument when the
/// presets disagree on the observation layout (the generalist's lanes must
/// share one actor architecture).
[[nodiscard]] ActorZoo train_actor_zoo(const ScenarioRegistry& registry,
                                       std::vector<std::string> keys,
                                       const core::DrlFleetTrainConfig& cfg);

}  // namespace ecthub::sim
