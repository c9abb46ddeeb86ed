#include "core/policy_runner.hpp"

namespace ecthub::core {

std::vector<double> run_policy(EctHubEnv& env, policy::Policy& pol, std::size_t episodes) {
  std::vector<double> profits;
  profits.reserve(episodes);
  std::vector<double> state(env.state_dim());
  for (std::size_t e = 0; e < episodes; ++e) {
    env.reset_into(state);
    pol.begin_episode();
    bool done = false;
    while (!done) done = env.step_into(pol.decide(state), state).done;
    profits.push_back(env.ledger().total_profit());
  }
  return profits;
}

}  // namespace ecthub::core
