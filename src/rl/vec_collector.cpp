#include "rl/vec_collector.hpp"

#include "common/rng.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

namespace ecthub::rl {

VecRolloutCollector::VecRolloutCollector(std::vector<Env*> envs, VecCollectorConfig cfg)
    : envs_(std::move(envs)), crew_(crew_size(cfg.threads, envs_.size())) {
  if (envs_.empty()) throw std::invalid_argument("VecRolloutCollector: no envs");
  for (Env* env : envs_) {
    if (env == nullptr) throw std::invalid_argument("VecRolloutCollector: null env");
    if (env->state_dim() != envs_.front()->state_dim() ||
        env->action_count() != envs_.front()->action_count()) {
      throw std::invalid_argument("VecRolloutCollector: lanes disagree on dimensions");
    }
  }
  std::vector<const Env*> sorted(envs_.begin(), envs_.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("VecRolloutCollector: duplicate env lane");
  }

  const std::size_t n = envs_.size();
  rngs_.reserve(n);
  for (std::size_t l = 0; l < n; ++l) rngs_.emplace_back(ecthub::mix_seed(cfg.seed, l));
  buffers_.resize(n);
  lane_reward_.assign(n, 0.0);
  lane_episodes_.assign(n, 0);
}

void VecRolloutCollector::clear() {
  for (RolloutBuffer& b : buffers_) b.clear();
}

VecRolloutCollector::Stats VecRolloutCollector::finish_stats() const {
  // Lane-order summation: the totals are as deterministic as the buffers.
  Stats stats;
  for (std::size_t l = 0; l < envs_.size(); ++l) {
    stats.total_reward += lane_reward_[l];
    stats.episodes += lane_episodes_[l];
  }
  return stats;
}

VecRolloutCollector::Stats VecRolloutCollector::collect(const ActorCritic& ac,
                                                        std::size_t episodes_per_lane) {
  const std::size_t n = envs_.size();
  const std::size_t dim = envs_.front()->state_dim();
  if (ac.config().state_dim != dim ||
      ac.config().action_count != envs_.front()->action_count()) {
    throw std::invalid_argument("VecRolloutCollector::collect: actor/env dim mismatch");
  }
  if (episodes_per_lane == 0) {
    throw std::invalid_argument("VecRolloutCollector::collect: episodes_per_lane == 0");
  }

  std::size_t transitions_before = 0;
  for (const RolloutBuffer& b : buffers_) transitions_before += b.size();

  obs_.resize_zeroed(n, dim);
  samples_.assign(n, ActorCritic::Sample{});
  active_.assign(n, 0);
  needs_reset_.assign(n, 1);
  remaining_.assign(n, episodes_per_lane);
  lane_reward_.assign(n, 0.0);
  lane_episodes_.assign(n, 0);
  const std::size_t members = crew_.size();
  workspaces_.resize(members);

  const auto row_span = [&](std::size_t lane) {
    return std::span<double>(obs_.data().data() + lane * dim, dim);
  };
  const std::span<nn::Rng> rngs(rngs_.data(), n);
  const std::span<ActorCritic::Sample> samples(samples_.data(), n);
  const std::span<const std::uint8_t> active(active_.data(), n);

  // One fused phase per fleet slot: episode turnover, the member's row-block
  // stochastic forward, then step + record.  Every lane is touched by
  // exactly one member, so no phase-internal synchronization is needed.
  // Built once here: BarrierCrew::run takes a const std::function&, so a
  // lambda passed per slot would allocate a fresh std::function every slot.
  const std::function<void(std::size_t)> step_partition = [&](std::size_t member) {
    const std::size_t lo = member * n / members;
    const std::size_t hi = (member + 1) * n / members;
    for (std::size_t lane = lo; lane < hi; ++lane) {
      if (needs_reset_[lane] != 0) {
        if (remaining_[lane] == 0) {
          active_[lane] = 0;  // drained: keep the stale row, stop sampling
          continue;
        }
        envs_[lane]->reset_into(row_span(lane));
        needs_reset_[lane] = 0;
        active_[lane] = 1;
      }
    }
    ac.act_rows(obs_, lo, hi, rngs, samples, workspaces_[member], active);
    for (std::size_t lane = lo; lane < hi; ++lane) {
      if (active_[lane] == 0) continue;
      const auto row = row_span(lane);
      Transition t;
      t.state.assign(row.begin(), row.end());  // the pre-step observation
      const ActorCritic::Sample& s = samples_[lane];
      const StepOutcome oc = envs_[lane]->step_into(s.action, row);
      t.action = s.action;
      t.log_prob = s.log_prob;
      t.value = s.value;
      t.reward = oc.reward;
      t.done = oc.done;
      t.truncated = oc.done && oc.truncated;
      if (t.truncated) {
        // The env left the terminal observation in the lane row.
        t.bootstrap_value = ac.value_of(row, workspaces_[member]);
      }
      buffers_[lane].add(std::move(t));
      lane_reward_[lane] += oc.reward;
      if (oc.done) {
        ++lane_episodes_[lane];
        --remaining_[lane];
        needs_reset_[lane] = 1;
      }
    }
  };

  for (;;) {
    bool any_work = false;
    for (std::size_t lane = 0; lane < n && !any_work; ++lane) {
      any_work = remaining_[lane] > 0 || needs_reset_[lane] == 0;
    }
    if (!any_work) break;
    crew_.run(step_partition);
  }

  Stats stats = finish_stats();
  std::size_t transitions_after = 0;
  for (const RolloutBuffer& b : buffers_) transitions_after += b.size();
  stats.transitions = transitions_after - transitions_before;
  return stats;
}

VecRolloutCollector::Stats VecRolloutCollector::collect_serial(ActorCritic& ac,
                                                               std::size_t episodes_per_lane) {
  const std::size_t n = envs_.size();
  const std::size_t dim = envs_.front()->state_dim();
  if (ac.config().state_dim != dim ||
      ac.config().action_count != envs_.front()->action_count()) {
    throw std::invalid_argument("VecRolloutCollector::collect_serial: actor/env dim mismatch");
  }
  if (episodes_per_lane == 0) {
    throw std::invalid_argument(
        "VecRolloutCollector::collect_serial: episodes_per_lane == 0");
  }

  std::size_t transitions_before = 0;
  for (const RolloutBuffer& b : buffers_) transitions_before += b.size();

  lane_reward_.assign(n, 0.0);
  lane_episodes_.assign(n, 0);
  workspaces_.resize(std::max<std::size_t>(1, workspaces_.size()));

  // Per-lane streams are independent, so running each lane to completion
  // draws exactly the sequence the lockstep interleaving draws — this is
  // the bit-identity reference for collect().
  std::vector<double> state(dim);
  std::vector<double> state_buf(dim);
  for (std::size_t lane = 0; lane < n; ++lane) {
    for (std::size_t e = 0; e < episodes_per_lane; ++e) {
      envs_[lane]->reset_into(std::span<double>(state));
      bool done = false;
      while (!done) {
        const ActorCritic::Sample s = ac.act(state, rngs_[lane]);
        Transition t;
        t.state = state;
        const StepOutcome oc =
            envs_[lane]->step_into(s.action, std::span<double>(state_buf));
        t.action = s.action;
        t.log_prob = s.log_prob;
        t.value = s.value;
        t.reward = oc.reward;
        t.done = oc.done;
        t.truncated = oc.done && oc.truncated;
        if (t.truncated) {
          t.bootstrap_value = ac.value_of(std::span<const double>(state_buf),
                                          workspaces_.front());
        }
        buffers_[lane].add(std::move(t));
        lane_reward_[lane] += oc.reward;
        done = oc.done;
        if (oc.done) {
          ++lane_episodes_[lane];
        } else {
          std::swap(state, state_buf);
        }
      }
    }
  }

  Stats stats = finish_stats();
  std::size_t transitions_after = 0;
  for (const RolloutBuffer& b : buffers_) transitions_after += b.size();
  stats.transitions = transitions_after - transitions_before;
  return stats;
}

}  // namespace ecthub::rl
