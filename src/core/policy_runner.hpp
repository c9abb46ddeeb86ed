// Drives one hub environment under any Policy through the shared
// observation contract (policy/observation.hpp).
//
// This is the scalar (single-hub) execution path; sim::FleetRunner scales
// the same Policy API across a fleet, per-hub-threaded or lockstep-batched.
#pragma once

#include "core/hub_env.hpp"
#include "policy/policy.hpp"

#include <vector>

namespace ecthub::core {

/// Runs `episodes` full episodes of `env` under `pol`; returns per-episode
/// total profit.  Profit comes from the ledger — env rewards may be shaped
/// for RL.  The policy sees each slot's observation exactly once, in order,
/// and gets begin_episode() after every reset.  Every episode steps one
/// observation buffer in place, so once the env and policy are warm a call
/// allocates only that buffer and the returned vector.
[[nodiscard]] std::vector<double> run_policy(EctHubEnv& env, policy::Policy& pol,
                                             std::size_t episodes);

}  // namespace ecthub::core
