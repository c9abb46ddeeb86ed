// Abstract episodic environment with a discrete action space.
//
// The ECT-Hub environment (src/core/hub_env.hpp) implements this interface;
// keeping it abstract lets the PPO trainer be unit-tested on toy MDPs.
// Every caller — the fleet runner, the rollout collector, core::run_policy —
// steps an env through reset_into / step_into over one caller-owned
// observation buffer, so a step allocates nothing on the interface.
//
// Termination vs truncation.  `done` ends the episode either way; `truncated`
// distinguishes a time-limit cut (the paper's infinite-horizon MDP stopped at
// the training horizon — the tail still has value, so GAE bootstraps V(s_T))
// from a true terminal state (no future value, bootstrap zero).  EctHubEnv
// episodes end only at the fixed horizon, so it always truncates; toy MDPs
// with real terminals leave the flag false.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ecthub::rl {

/// Reward / termination of one step (Env::step_into).
struct StepOutcome {
  double reward = 0.0;
  bool done = false;
  bool truncated = false;  ///< done by time limit, not a terminal state
};

/// Env::step's allocating result; see Env::reset.
struct StepResult {
  std::vector<double> next_state;
  double reward = 0.0;
  bool done = false;
  bool truncated = false;  ///< done by time limit, not a terminal state
};

class Env {
 public:
  virtual ~Env() = default;

  /// Regenerates the episode and writes the initial observation into
  /// `state` (size == state_dim()).
  virtual void reset_into(std::span<double> state) = 0;

  /// Applies a discrete action in [0, action_count) and writes the next
  /// observation into `next_state`.  On done the buffer holds the final
  /// observation (what V(s_T) is evaluated on when the episode was
  /// truncated).
  virtual StepOutcome step_into(std::size_t action, std::span<double> next_state) = 0;

  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  [[nodiscard]] virtual std::size_t action_count() const = 0;

  /// Allocating copies of reset_into / step_into.  Nothing in the library
  /// calls them; they remain only because the benchmark's traced env wrapper
  /// (perfbench/src/train_ppo.cpp) overrides them, and go with StepResult
  /// when the benchmark next changes.
  virtual std::vector<double> reset();
  virtual StepResult step(std::size_t action);
};

}  // namespace ecthub::rl
