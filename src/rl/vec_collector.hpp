// Vectorized PPO rollout collection: N env lanes stepped in lockstep with
// one batched stochastic actor forward per slot.
//
// Inference got the batching machinery first (lockstep fleet GEMMs,
// decide_rows row blocks); this is the training half.
// The collector holds one observation row per lane in an (N x state_dim)
// matrix, advances every live lane one step per slot — reset_into /
// act_rows / step_into, all in place — and records each lane's transitions
// into its own RolloutBuffer.
//
// Determinism contract (mirrors the fleet runner's):
//  * Lane l samples from its own Rng stream seeded mix_seed(seed, l); the
//    streams persist across collect() calls and are never shared, so every
//    transition is a pure function of (envs, actor weights, seed, episode
//    index) — independent of thread count and of the other lanes.
//  * Lanes split into fixed contiguous partitions across a BarrierCrew, at
//    every crew size including 1; each member drives its partition through
//    one fused phase per slot (episode turnover -> act_rows on its
//    contiguous row block with its own RowsWorkspace -> step + record).  A
//    lane is touched by exactly one thread, row-block GEMMs are
//    bit-identical at any split, and the per-lane RNG streams replay
//    exactly — so the collected buffers are bit-identical to the serial
//    per-lane reference (collect_serial) at any `threads` setting.
//    Finished lanes keep a stale observation row and are masked out of
//    sampling, so they never consume stream draws.
//  * Episodes that end truncated (time limit) record the critic bootstrap
//    V(s_T) on their final transition, evaluated on the terminal observation
//    the env leaves in the lane row.
#pragma once

#include "common/crew.hpp"
#include "rl/actor_critic.hpp"
#include "rl/env.hpp"
#include "rl/rollout.hpp"

#include <cstdint>
#include <vector>

namespace ecthub::rl {

struct VecCollectorConfig {
  /// Crew size for the per-slot phase, clamped to the lane count; 0 = one
  /// per CPU the calling thread may run on, 1 = the calling thread alone
  /// (the default).  Any value collects bit-identical buffers.
  std::size_t threads = 1;
  /// Base of the per-lane sampling streams: lane l draws from
  /// Rng(mix_seed(seed, l)).
  std::uint64_t seed = 123;
};

class VecRolloutCollector {
 public:
  /// Non-owning lanes: every env must outlive the collector, be distinct,
  /// and agree on state_dim/action_count (matching `ac` when collected).
  VecRolloutCollector(std::vector<Env*> envs, VecCollectorConfig cfg);

  VecRolloutCollector(const VecRolloutCollector&) = delete;
  VecRolloutCollector& operator=(const VecRolloutCollector&) = delete;

  struct Stats {
    double total_reward = 0.0;      ///< summed in lane order (deterministic)
    std::size_t episodes = 0;
    std::size_t transitions = 0;
  };

  /// Collects `episodes_per_lane` full episodes on every lane into the
  /// per-lane buffers (appending — call clear() between iterations),
  /// batching the actor forward across live lanes each slot.
  Stats collect(const ActorCritic& ac, std::size_t episodes_per_lane);

  /// The serial reference: the same lanes, streams and buffers driven one
  /// lane at a time through per-row act().  Bit-identical buffers to
  /// collect() at any VecCollectorConfig::threads.
  Stats collect_serial(ActorCritic& ac, std::size_t episodes_per_lane);

  [[nodiscard]] std::size_t lanes() const noexcept { return envs_.size(); }
  [[nodiscard]] const std::vector<RolloutBuffer>& buffers() const noexcept {
    return buffers_;
  }
  void clear();

 private:
  Stats finish_stats() const;

  std::vector<Env*> envs_;
  std::vector<nn::Rng> rngs_;  ///< per-lane sampling streams, persistent
  std::vector<RolloutBuffer> buffers_;
  std::vector<double> lane_reward_;      ///< per-lane reward accumulators
  std::vector<std::size_t> lane_episodes_;
  BarrierCrew crew_;                     ///< runs every slot's phase

  // Lockstep slot state (sized to lanes, reused across collect calls).
  nn::Matrix obs_;                       ///< one observation row per lane
  std::vector<ActorCritic::Sample> samples_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> needs_reset_;
  std::vector<std::size_t> remaining_;
  std::vector<ActorCritic::RowsWorkspace> workspaces_;  ///< one per member
};

}  // namespace ecthub::rl
