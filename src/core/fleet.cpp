#include "core/fleet.hpp"

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/policy_runner.hpp"
#include "nn/serialize.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace ecthub::core {

policy::DrlCheckpoint export_actor_checkpoint(const rl::ActorCritic& ac) {
  policy::DrlCheckpoint ckpt;
  ckpt.config.state_dim = ac.config().state_dim;
  ckpt.config.action_count = ac.config().action_count;
  ckpt.config.trunk_dim = ac.config().trunk_dim;
  ckpt.config.head_dim = ac.config().head_dim;
  std::vector<nn::ConstParameter> actor_params;
  for (const auto& p : ac.parameters()) {
    if (p.name.starts_with("ac.trunk") || p.name.starts_with("ac.actor")) {
      actor_params.push_back(p);
    }
  }
  ckpt.blob = nn::save_parameters(actor_params);
  return ckpt;
}

namespace {

/// Stream tag separating the collector's per-lane sampling streams from the
/// trainer's init/shuffle stream, both derived from DrlFleetTrainConfig::seed.
constexpr std::uint64_t kCollectorSeedTag = 0xc011ec70ULL;

struct TrainedActor {
  policy::DrlCheckpoint checkpoint;
  std::vector<rl::PpoIterationStats> history;  ///< one entry per iteration
};

/// The one ECT-DRL training run: train_fleet over `lanes`, actor exported.
TrainedActor train_lanes(const std::vector<DrlTrainLane>& lanes,
                         const DrlFleetTrainConfig& cfg) {
  if (lanes.empty()) throw std::invalid_argument("train_drl_checkpoint: no lanes");
  std::vector<std::unique_ptr<EctHubEnv>> envs;
  envs.reserve(lanes.size());
  for (const DrlTrainLane& lane : lanes) {
    envs.push_back(std::make_unique<EctHubEnv>(lane.hub, lane.env));
  }
  std::vector<rl::Env*> env_ptrs;
  env_ptrs.reserve(envs.size());
  for (auto& env : envs) env_ptrs.push_back(env.get());

  rl::ActorCriticConfig ac_cfg;
  ac_cfg.state_dim = env_ptrs.front()->state_dim();
  ac_cfg.action_count = env_ptrs.front()->action_count();
  rl::PpoTrainer trainer(cfg.ppo, ac_cfg, nn::Rng(cfg.seed));

  rl::VecCollectorConfig collector;
  collector.threads = cfg.collector_threads;
  collector.seed = mix_seed(cfg.seed, kCollectorSeedTag);
  TrainedActor trained;
  trained.history = trainer.train_fleet(env_ptrs, cfg.iterations, collector);
  trained.checkpoint = export_actor_checkpoint(trainer.policy());
  return trained;
}

/// The mean daily profit over every test day of every episode, all days
/// pooled (not the mean of per-episode means).
double average_daily_reward(const std::vector<std::vector<double>>& daily_per_ep) {
  double acc = 0.0;
  std::size_t days = 0;
  for (const auto& ep : daily_per_ep) {
    for (double d : ep) {
      acc += d;
      ++days;
    }
  }
  if (days == 0) throw std::invalid_argument("average_daily_reward: no days");
  return acc / static_cast<double>(days);
}

/// Day d's profit averaged over the test episodes, summed in episode order.
std::vector<double> mean_daily_reward(const std::vector<std::vector<double>>& daily_per_ep) {
  std::vector<double> mean(daily_per_ep.front().size(), 0.0);
  for (const auto& ep : daily_per_ep) {
    for (std::size_t d = 0; d < mean.size(); ++d) mean[d] += ep[d];
  }
  for (double& m : mean) m /= static_cast<double>(daily_per_ep.size());
  return mean;
}

/// `cfg.train_hubs` replica lanes of `hub` under `cfg.env`.
std::vector<DrlTrainLane> replica_lanes(const HubConfig& hub, const DrlFleetTrainConfig& cfg) {
  if (cfg.train_hubs == 0) {
    throw std::invalid_argument("DrlFleetTrainConfig: train_hubs == 0");
  }
  std::vector<DrlTrainLane> lanes;
  lanes.reserve(cfg.train_hubs);
  for (std::size_t l = 0; l < cfg.train_hubs; ++l) {
    DrlTrainLane lane{hub, cfg.env};
    // Replica lanes explore distinct episode streams; lane 0 is mixed too so
    // the checkpoint depends only on (hub.seed, train_hubs), not on whether
    // the single- or multi-lane recipe produced it, and so no lane replays
    // the hub's own stream (run_hub_experiment tests on it).
    lane.hub.seed = mix_seed(hub.seed, l);
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

}  // namespace

policy::DrlCheckpoint train_drl_checkpoint(const std::vector<DrlTrainLane>& lanes,
                                           const DrlFleetTrainConfig& cfg) {
  return train_lanes(lanes, cfg).checkpoint;
}

policy::DrlCheckpoint train_drl_checkpoint(const HubConfig& hub,
                                           const DrlFleetTrainConfig& cfg) {
  return train_lanes(replica_lanes(hub, cfg), cfg).checkpoint;
}

HubMethodResult run_hub_experiment(const HubConfig& hub,
                                   const std::vector<bool>& discount_by_hour,
                                   const DrlFleetTrainConfig& cfg, std::size_t test_episodes,
                                   const std::string& method_name) {
  if (test_episodes == 0) {
    throw std::invalid_argument("run_hub_experiment: test_episodes must be >= 1");
  }
  DrlFleetTrainConfig train_cfg = cfg;
  train_cfg.env.discount_by_hour = discount_by_hour;
  const TrainedActor trained = train_lanes(replica_lanes(hub, train_cfg), train_cfg);

  HubMethodResult result;
  result.hub = hub.name;
  result.method = method_name;
  result.train_curve.reserve(trained.history.size());
  for (const auto& h : trained.history) result.train_curve.push_back(h.mean_episode_reward);

  // Test episodes under the *deployed* greedy policy — the exported actor a
  // fleet sweep loads — so Table III measures the serialization + Policy API
  // path end to end, not the training-time network.  The ledger gives the
  // per-day profits.
  EctHubEnv env(hub, train_cfg.env);
  policy::DrlPolicy deployed(trained.checkpoint);
  std::vector<std::vector<double>> daily_per_ep;
  daily_per_ep.reserve(test_episodes);
  for (std::size_t e = 0; e < test_episodes; ++e) {
    (void)run_policy(env, deployed, 1);
    daily_per_ep.push_back(env.ledger().daily_profit());
  }
  result.avg_daily_reward = average_daily_reward(daily_per_ep);
  result.daily_rewards = mean_daily_reward(daily_per_ep);
  return result;
}

}  // namespace ecthub::core
