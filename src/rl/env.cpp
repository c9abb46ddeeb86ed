#include "rl/env.hpp"

namespace ecthub::rl {

std::vector<double> Env::reset() {
  std::vector<double> state(state_dim());
  reset_into(state);
  return state;
}

StepResult Env::step(std::size_t action) {
  StepResult r;
  r.next_state.resize(state_dim());
  const StepOutcome out = step_into(action, r.next_state);
  r.reward = out.reward;
  r.done = out.done;
  r.truncated = out.truncated;
  return r;
}

}  // namespace ecthub::rl
