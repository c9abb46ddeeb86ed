// ECT-DRL training and the fleet experiments behind Table III and Fig. 13.
//
// One training recipe, DrlFleetTrainConfig, drives every PPO run: PPO over
// env lanes collected in lockstep (rl::PpoTrainer::train_fleet), actor
// exported for deployment.  train_drl_checkpoint returns that actor;
// run_hub_experiment wires a pricing method's (ECT-Price / OR / IPS / DR)
// discount schedule into the hub, trains the same way, then evaluates the
// deployed greedy policy:
//   - Table III: average daily reward over the test episodes;
//   - Fig. 13:  the per-day reward series of one test episode.
#pragma once

#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "rl/ppo.hpp"

#include <string>
#include <vector>

namespace ecthub::core {

/// The ECT-DRL training recipe: PPO over a fleet of env lanes collected in
/// lockstep.  The one config of train_drl_checkpoint, run_hub_experiment
/// and sim::train_actor_zoo.
struct DrlFleetTrainConfig {
  HubEnvConfig env;      ///< episode shape to train under
  rl::PpoConfig ppo;
  std::size_t iterations = 4;  ///< PPO collect+update cycles
  std::uint64_t seed = 99;
  /// Rollout lanes: replicas of the training hub (seeded mix_seed(hub.seed,
  /// lane)) stepped in lockstep, episodes_per_iteration episodes per lane.
  std::size_t train_hubs = 1;
  /// Crew size for the vectorized collection phase (0 = hardware
  /// concurrency).  Any value trains bit-identical weights.
  std::size_t collector_threads = 1;
};

struct HubMethodResult {
  std::string hub;
  std::string method;
  double avg_daily_reward = 0.0;        ///< Table III cell
  std::vector<double> daily_rewards;    ///< Fig. 13 series (one test episode)
  std::vector<double> train_curve;      ///< mean episode reward per iteration
};

/// Trains ECT-DRL on `cfg.train_hubs` replica lanes of `hub` under one
/// hourly discount schedule (exactly as train_drl_checkpoint does), then runs
/// `test_episodes` greedy episodes of the deployed actor on a fresh env of
/// `hub` itself, whose episode stream no training lane replays.  Throws
/// std::invalid_argument, before training, when test_episodes is 0.
[[nodiscard]] HubMethodResult run_hub_experiment(const HubConfig& hub,
                                                 const std::vector<bool>& discount_by_hour,
                                                 const DrlFleetTrainConfig& cfg,
                                                 std::size_t test_episodes,
                                                 const std::string& method_name);

/// Serializes the actor path (shared trunk + actor head) of a trained
/// actor-critic into a deployable DrlPolicy checkpoint.  The critic head is
/// training-time baggage and is dropped; parameter names carry over, so the
/// checkpoint loads straight into policy::DrlPolicy and any architecture
/// mismatch fails loudly at load time.  Const: a const trainer can be
/// checkpointed mid-training (e.g. from the rollout collector).
[[nodiscard]] policy::DrlCheckpoint export_actor_checkpoint(const rl::ActorCritic& ac);

/// One rollout lane of a multi-hub training run.
struct DrlTrainLane {
  HubConfig hub;
  HubEnvConfig env;
};

/// Trains a PPO policy on `cfg.train_hubs` lockstep replicas of `hub` and
/// returns the deployable actor checkpoint: what a fleet sweep's
/// SchedulerKind::kDrl loads when no pre-trained checkpoint is on disk.
[[nodiscard]] policy::DrlCheckpoint train_drl_checkpoint(const HubConfig& hub,
                                                         const DrlFleetTrainConfig& cfg);

/// Heterogeneous-lane variant (the actor-zoo generalist trains across
/// scenario presets this way): one env lane per entry, exactly as given —
/// cfg.env and cfg.train_hubs are ignored, lane seeds are the callers'.
/// All lanes must agree on the observation layout.
[[nodiscard]] policy::DrlCheckpoint train_drl_checkpoint(
    const std::vector<DrlTrainLane>& lanes, const DrlFleetTrainConfig& cfg);

}  // namespace ecthub::core
