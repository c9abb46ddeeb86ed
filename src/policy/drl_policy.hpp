// ECT-DRL deployment policy: the trained PPO actor behind the Policy API.
//
// DrlPolicy wraps the actor path of the actor-critic network (shared trunk +
// actor head, paper Fig. 10) and acts greedily (argmax over action logits).
// Its batched forward is the payoff of the unified API: one pass over a
// (hubs x state_dim) matrix turns per-hub matrix-vector products into
// matrix-matrix GEMMs across the whole fleet slot.
//
// Every decision path funnels through decide_rows(): a const row-block
// forward whose scratch lives entirely in the caller's workspace (the
// nn layers' inference-only forward_rows paths cache nothing), so several
// worker threads can shard one observation matrix across one shared actor —
// each with its own workspace — and reproduce the full-batch GEMM bit for
// bit.  decide() and decide_batch() are thin wrappers over the same kernel
// using a member workspace.
//
// Weights travel as a DrlCheckpoint — the network shape plus an nn/serialize
// parameter blob.  The parameter names mirror rl::ActorCritic ("ac.trunk",
// "ac.actor.*"), so a checkpoint exported from a trained PPO policy loads
// straight into a DrlPolicy (core::export_actor_checkpoint does exactly
// that) and any architecture mismatch fails loudly at load time.
//
// Checkpoint file: a common/binio container, magic "ECDR", version 1.
//
//   id 1  widths  state_dim, action_count, trunk_dim, head_dim (u64)
//   id 2  blob    the nn::save_parameters blob
//
// Files written before the ECDR container fail with binio::MagicError and
// must be re-exported.
#pragma once

#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "policy/policy.hpp"

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub::policy {

/// Actor network shape; must match the rl::ActorCriticConfig it was trained
/// under for a checkpoint to load.
struct DrlPolicyConfig {
  std::size_t state_dim = 0;
  std::size_t action_count = 3;
  std::size_t trunk_dim = 64;  ///< shared fully connected layer width
  std::size_t head_dim = 32;   ///< hidden width of the actor head
};

/// A serialized actor: shape + nn::save_parameters blob (trunk and actor
/// tensors only — the critic head is training-time baggage).
struct DrlCheckpoint {
  DrlPolicyConfig config;
  std::string blob;

  /// The ECDR file above.
  [[nodiscard]] std::string serialize() const;
  /// Parses serialize() output; throws binio::Error subclasses.  The blob is
  /// checked against the widths when a DrlPolicy is built from it.
  [[nodiscard]] static DrlCheckpoint parse(std::string_view bytes);
};

class DrlPolicy final : public Policy {
 public:
  /// Fresh (randomly initialized) actor — the pre-training starting point.
  DrlPolicy(DrlPolicyConfig cfg, nn::Rng& rng);

  /// Restores a serialized actor.  Throws binio::FormatError when the blob
  /// cannot hold the layers the widths describe (checked before any layer is
  /// sized) or does not match them, and std::invalid_argument for a zero
  /// width.
  explicit DrlPolicy(const DrlCheckpoint& checkpoint);

  std::size_t decide(std::span<const double> obs) override;
  /// One batched forward pass: (batch x state_dim) -> argmax logits per row.
  /// Bit-identical per row to decide() on that row (the GEMM accumulates
  /// each output element in the same order regardless of batch size).
  void decide_batch(const nn::Matrix& obs, std::span<std::size_t> actions);
  /// Row-block forward: actions[row_begin, row_end) from the same rows of
  /// `obs`, bit-identical to decide_batch on the whole matrix.  Const and
  /// workspace-confined — disjoint row blocks may run concurrently on one
  /// shared instance (`ws` must come from make_workspace()).
  void decide_rows(const nn::Matrix& obs, std::size_t row_begin, std::size_t row_end,
                   std::span<std::size_t> actions, Workspace& ws) const override;
  [[nodiscard]] std::unique_ptr<Workspace> make_workspace() const override;

  [[nodiscard]] std::string name() const override { return "ECT-DRL"; }
  [[nodiscard]] bool stateless() const override { return true; }

  /// Serializes the current weights.
  [[nodiscard]] DrlCheckpoint checkpoint();

  [[nodiscard]] std::vector<nn::Parameter> parameters();
  [[nodiscard]] const DrlPolicyConfig& config() const noexcept { return cfg_; }

 private:
  /// Reusable forward scratch: the trunk activation block plus one buffer
  /// per actor-head layer.  All call-local state lives here, never in the
  /// layers, which is what makes decide_rows const and thread-safe.
  struct BatchWorkspace final : Workspace {
    nn::Matrix trunk;               ///< row-block x trunk_dim (tanh in place)
    std::vector<nn::Matrix> head;   ///< actor MLP layer outputs
    nn::Matrix single;              ///< decide()'s 1-row observation
  };

  /// Layer construction needs an RNG even when every weight is about to be
  /// overwritten from a checkpoint blob; this overload lets the restoring
  /// constructor delegate with a policy-local throwaway Rng instead of any
  /// shared scratch state.
  DrlPolicy(DrlPolicyConfig cfg, nn::Rng&& scratch_rng);

  [[nodiscard]] static DrlPolicyConfig validated(DrlPolicyConfig cfg);

  DrlPolicyConfig cfg_;
  nn::Dense trunk_;
  nn::ActivationLayer trunk_act_;
  nn::Mlp actor_;  ///< -> logits
  BatchWorkspace scratch_;  ///< backs the non-const decide/decide_batch wrappers
};

}  // namespace ecthub::policy
