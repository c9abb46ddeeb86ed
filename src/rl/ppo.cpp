#include "rl/ppo.hpp"

#include "nn/elementary.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ecthub::rl {

PpoTrainer::PpoTrainer(PpoConfig cfg, ActorCriticConfig ac_cfg, nn::Rng rng)
    : cfg_(cfg), rng_(rng), ac_(ac_cfg, rng_), opt_(cfg.adam) {
  if (cfg_.clip_epsilon <= 0.0 || cfg_.clip_epsilon >= 1.0) {
    throw std::invalid_argument("PpoConfig: clip_epsilon out of (0, 1)");
  }
  if (cfg_.minibatch_size == 0) throw std::invalid_argument("PpoConfig: minibatch_size == 0");
  if (cfg_.episodes_per_iteration == 0) {
    throw std::invalid_argument("PpoConfig: episodes_per_iteration == 0");
  }
}

PpoUpdateStats PpoTrainer::update(const RolloutBuffer& buffer) {
  const auto& trans = buffer.transitions();
  if (trans.empty()) throw std::invalid_argument("PpoTrainer::update: empty buffer");

  // Episodes end with done = true, so no trailing bootstrap is needed here;
  // truncated episodes carry their own per-transition bootstrap_value.
  RolloutBuffer::Targets targets = buffer.compute_gae(cfg_.gamma, cfg_.gae_lambda, 0.0);
  RolloutBuffer::normalize(targets.advantages);

  PpoUpdateStats agg;
  std::size_t agg_batches = 0;
  std::vector<std::size_t> order(trans.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < cfg_.update_epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += cfg_.minibatch_size) {
      const std::size_t end = std::min(start + cfg_.minibatch_size, order.size());
      const std::size_t n = end - start;

      std::vector<std::vector<double>> state_rows;
      state_rows.reserve(n);
      for (std::size_t k = start; k < end; ++k) state_rows.push_back(trans[order[k]].state);
      const nn::Matrix states = nn::Matrix::from_rows(state_rows);

      ac_.zero_grad();
      const PolicyOutput out = ac_.forward(states);

      nn::Matrix dprobs(n, out.probs.cols(), 0.0);
      nn::Matrix dvalues(n, 1, 0.0);
      PpoUpdateStats stats;
      const double dn = static_cast<double>(n);
      for (std::size_t k = 0; k < n; ++k) {
        const Transition& t = trans[order[start + k]];
        const double adv = targets.advantages[order[start + k]];
        const double ret = targets.returns[order[start + k]];
        const double p_new = std::max(out.probs(k, t.action), 1e-12);
        const double p_old = nn::elementary::exp(t.log_prob);
        const double ratio = p_new / p_old;  // Eq. 26
        stats.mean_ratio += ratio / dn;

        // Clipped surrogate (Eq. 25).  Gradient flows through the unclipped
        // branch only when it is the active minimum.
        const double lo = 1.0 - cfg_.clip_epsilon, hi = 1.0 + cfg_.clip_epsilon;
        const double unclipped = ratio * adv;
        const double clipped = std::clamp(ratio, lo, hi) * adv;
        stats.policy_loss -= std::min(unclipped, clipped) / dn;
        const bool pass_gradient = (adv >= 0.0 && ratio <= hi) || (adv < 0.0 && ratio >= lo);
        if (!pass_gradient) stats.clip_fraction += 1.0 / dn;
        if (pass_gradient) {
          // dL/dp(a) = -adv / p_old, averaged over the batch.
          dprobs(k, t.action) += -adv / p_old / dn;
        }

        // Value regression (Eq. 27 second term).
        const double v = out.values(k, 0);
        stats.value_loss += cfg_.value_coeff * (v - ret) * (v - ret) / dn;
        dvalues(k, 0) = 2.0 * cfg_.value_coeff * (v - ret) / dn;

        // Entropy bonus: encourage exploration; subtracting beta * H from the
        // loss adds beta * (log p + 1) to dL/dp for every action.
        for (std::size_t a = 0; a < out.probs.cols(); ++a) {
          const double p = std::max(out.probs(k, a), 1e-12);
          const double log_p = nn::elementary::log(p);
          stats.entropy -= p * log_p / dn;
          dprobs(k, a) += cfg_.entropy_coeff * (log_p + 1.0) / dn;
        }
      }

      ac_.backward(dprobs, dvalues);
      auto params = ac_.parameters();
      opt_.step(params);

      agg.policy_loss += stats.policy_loss;
      agg.value_loss += stats.value_loss;
      agg.entropy += stats.entropy;
      agg.mean_ratio += stats.mean_ratio;
      agg.clip_fraction += stats.clip_fraction;
      ++agg_batches;
    }
  }
  if (agg_batches > 0) {
    const double b = static_cast<double>(agg_batches);
    agg.policy_loss /= b;
    agg.value_loss /= b;
    agg.entropy /= b;
    agg.mean_ratio /= b;
    agg.clip_fraction /= b;
  }
  return agg;
}

std::vector<PpoIterationStats> PpoTrainer::train_fleet(const std::vector<Env*>& envs,
                                                       std::size_t iterations,
                                                       const VecCollectorConfig& collector) {
  VecRolloutCollector vec(envs, collector);
  std::vector<PpoIterationStats> history;
  history.reserve(iterations);
  for (std::size_t it = 0; it < iterations; ++it) {
    vec.clear();
    const VecRolloutCollector::Stats stats =
        vec.collect(ac_, cfg_.episodes_per_iteration);
    RolloutBuffer merged;
    merged.reserve(stats.transitions);
    for (const RolloutBuffer& lane : vec.buffers()) merged.append(lane);
    PpoIterationStats iteration;
    iteration.mean_episode_reward =
        stats.episodes > 0 ? stats.total_reward / static_cast<double>(stats.episodes) : 0.0;
    iteration.update = update(merged);
    history.push_back(iteration);
  }
  return history;
}

}  // namespace ecthub::rl
