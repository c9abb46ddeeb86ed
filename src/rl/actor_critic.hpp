// Actor-critic network (paper Fig. 10).
//
// The concatenated state passes through a shared fully connected trunk; the
// actor head emits softmax action probabilities (3 BP actions) and the critic
// head emits the state value V(s).
//
// Two forward paths coexist:
//  * forward()/backward() — the training pass.  forward() caches the softmax
//    batch that backward() differentiates through; backward() validates the
//    incoming gradient shapes against that cache, so an interleaved stray
//    forward can no longer silently pair gradients with the wrong batch.
//  * act_rows()/value_of()/act()/act_greedy() — const inference over caller
//    (or member) scratch.  They never touch the training cache, so sampling
//    actions between forward() and backward() is safe, and disjoint row
//    blocks of one observation matrix may run on concurrent threads with
//    distinct workspaces (the vectorized rollout collector's hot path).
#pragma once

#include "nn/layers.hpp"
#include "nn/mlp.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ecthub::rl {

struct ActorCriticConfig {
  std::size_t state_dim = 0;
  std::size_t action_count = 3;
  std::size_t trunk_dim = 64;   ///< shared fully connected layer width
  std::size_t head_dim = 32;    ///< hidden width of each head
};

/// Output of one forward pass over a batch of states.
struct PolicyOutput {
  nn::Matrix probs;   ///< (batch x actions) softmax probabilities
  nn::Matrix values;  ///< (batch x 1) V(s)
};

class ActorCritic {
 public:
  ActorCritic(ActorCriticConfig cfg, nn::Rng& rng);

  PolicyOutput forward(const nn::Matrix& states);

  /// Backward pass given gradients w.r.t. action probabilities and values;
  /// accumulates parameter gradients.  Throws std::invalid_argument when the
  /// gradient shapes do not match the batch cached by the last forward().
  void backward(const nn::Matrix& dprobs, const nn::Matrix& dvalues);

  void zero_grad();
  [[nodiscard]] std::vector<nn::Parameter> parameters();
  /// Read-only parameter views — what a const checkpoint export serializes.
  [[nodiscard]] std::vector<nn::ConstParameter> parameters() const;

  /// Per-call scratch of the const inference path.  Resized on first use and
  /// reused after (allocation-free once warm); one per thread when row
  /// blocks of a shared network run concurrently.
  struct RowsWorkspace {
    nn::Matrix trunk;                        ///< row-block trunk activations
    std::vector<nn::Matrix> actor_scratch;   ///< Mlp::forward_rows buffers
    std::vector<nn::Matrix> critic_scratch;
    std::vector<double> probs;               ///< one row's softmax
    nn::Matrix single;                       ///< 1-row staging (act/value_of)
  };

  /// Samples an action from the policy at a single state; also returns the
  /// action's log-probability and the value estimate.
  struct Sample {
    std::size_t action = 0;
    double log_prob = 0.0;
    double value = 0.0;
  };
  Sample act(const std::vector<double>& state, nn::Rng& rng);

  /// Batched stochastic forward over rows [row_begin, row_end) of `states`:
  /// one trunk/head GEMM for the block, then per-row softmax + categorical
  /// sampling.  Row r draws from rngs[r] and writes out[r] (both spans are
  /// indexed by absolute row, sized states.rows()), so per-lane RNG streams
  /// replay exactly as under per-row act() — the results are bit-identical
  /// to calling act() on each row, at any block split.  A non-empty `active`
  /// mask (size states.rows()) skips sampling/output for rows flagged 0
  /// (finished lanes keep a stale row without consuming their stream).
  void act_rows(const nn::Matrix& states, std::size_t row_begin, std::size_t row_end,
                std::span<nn::Rng> rngs, std::span<Sample> out, RowsWorkspace& ws,
                std::span<const std::uint8_t> active = {}) const;

  /// Critic value of a single state (no sampling) — bootstraps truncated
  /// episode tails.
  [[nodiscard]] double value_of(std::span<const double> state, RowsWorkspace& ws) const;

  /// Greedy (argmax-probability) action for deployment.
  std::size_t act_greedy(const std::vector<double>& state);

  [[nodiscard]] const ActorCriticConfig& config() const noexcept { return cfg_; }

  /// Trunk + both heads over rows [row_begin, row_end); returns (logits,
  /// values) references into `ws`, valid until its next use.  Const and
  /// cache-free: the forward every inference path above runs.
  struct RowsOutput {
    const nn::Matrix* logits = nullptr;
    const nn::Matrix* values = nullptr;
  };
  RowsOutput forward_rows(const nn::Matrix& states, std::size_t row_begin,
                          std::size_t row_end, RowsWorkspace& ws) const;

 private:
  ActorCriticConfig cfg_;
  nn::Dense trunk_;
  nn::ActivationLayer trunk_act_;
  nn::Mlp actor_;   ///< -> logits
  nn::Mlp critic_;  ///< -> scalar value
  nn::Matrix cached_probs_;  ///< softmax of the last forward (for backward)
  RowsWorkspace act_ws_;     ///< scratch of the single-state act paths
};

}  // namespace ecthub::rl
