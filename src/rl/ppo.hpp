// Proximal Policy Optimization with a clipped surrogate objective
// (paper Sec. IV-B, Eqs. 25-28).
//
// Loss per transition:
//   L = -min(r A, clip(r, 1-eps, 1+eps) A) + c (V - R)^2 - beta H(pi(.|s))
// where r is the new/old probability ratio and H the policy entropy.  The
// clip prevents the "great turbulence" of the vanilla policy gradient the
// paper calls out.
//
// PpoTrainer::train_fleet is the one training loop: rl::VecRolloutCollector
// gathers episodes on N env lanes in lockstep (one lane for a single env),
// then one update runs on the lane-merged buffer.  core::train_drl_checkpoint,
// core::run_hub_experiment and sim::train_actor_zoo all train through it.
#pragma once

#include "nn/optimizer.hpp"
#include "rl/actor_critic.hpp"
#include "rl/env.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_collector.hpp"

#include <vector>

namespace ecthub::rl {

struct PpoConfig {
  /// 0.97 suits the hub task: battery arbitrage pays back within hours, so a
  /// shorter effective horizon reduces return variance.
  double gamma = 0.97;
  double gae_lambda = 0.95;
  double clip_epsilon = 0.2;
  double value_coeff = 0.5;     ///< c in Eq. 27
  double entropy_coeff = 0.01;  ///< exploration bonus
  std::size_t update_epochs = 4;
  std::size_t minibatch_size = 64;
  std::size_t episodes_per_iteration = 8;
  /// Adam lr 1e-3 / weight decay 1e-4: the paper's ECT-DRL training setup.
  nn::AdamConfig adam{.lr = 1e-3, .weight_decay = 1e-4, .grad_clip = 5.0};
};

struct PpoUpdateStats {
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  double mean_ratio = 0.0;
  double clip_fraction = 0.0;  ///< share of transitions where the clip bound
};

struct PpoIterationStats {
  double mean_episode_reward = 0.0;
  PpoUpdateStats update;
};

class PpoTrainer {
 public:
  /// `rng` seeds the weight init and then the minibatch shuffles; rollout
  /// sampling never draws from it.
  PpoTrainer(PpoConfig cfg, ActorCriticConfig ac_cfg, nn::Rng rng);

  /// The training loop: `iterations` cycles of vectorized lockstep
  /// collection over N env lanes (one lane is fine; episodes_per_iteration
  /// episodes *per lane*, batched stochastic forwards via
  /// ActorCritic::act_rows) followed by the PPO update on the lane-merged
  /// buffer.  Collection samples from the collector's per-lane streams, so
  /// the trained weights are bit-identical at any VecCollectorConfig::threads.
  std::vector<PpoIterationStats> train_fleet(const std::vector<Env*>& envs,
                                             std::size_t iterations,
                                             const VecCollectorConfig& collector = {});

  /// Mean episode reward under the greedy policy over `episodes` fresh
  /// episodes (no learning).
  double evaluate(Env& env, std::size_t episodes);

  /// Per-episode rewards under the greedy policy (for Fig. 13-style series).
  std::vector<double> evaluate_episodes(Env& env, std::size_t episodes);

  [[nodiscard]] ActorCritic& policy() noexcept { return ac_; }
  [[nodiscard]] const ActorCritic& policy() const noexcept { return ac_; }
  [[nodiscard]] const PpoConfig& config() const noexcept { return cfg_; }

  /// One PPO update over an externally-collected buffer (exposed for tests).
  PpoUpdateStats update(const RolloutBuffer& buffer);

 private:
  PpoConfig cfg_;
  nn::Rng rng_;
  ActorCritic ac_;
  nn::Adam opt_;
};

}  // namespace ecthub::rl
