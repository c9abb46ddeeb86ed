#include "rl/actor_critic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::rl {

namespace {
nn::MlpConfig head_config(std::size_t in, std::size_t hidden, std::size_t out) {
  nn::MlpConfig mc;
  mc.layer_dims = {in, hidden, out};
  mc.output_activation = nn::Activation::kIdentity;
  return mc;
}
}  // namespace

ActorCritic::ActorCritic(ActorCriticConfig cfg, nn::Rng& rng)
    : cfg_(cfg),
      trunk_(cfg.state_dim, cfg.trunk_dim, rng, "ac.trunk"),
      trunk_act_(nn::Activation::kTanh),
      actor_(head_config(cfg.trunk_dim, cfg.head_dim, cfg.action_count), rng, "ac.actor"),
      critic_(head_config(cfg.trunk_dim, cfg.head_dim, 1), rng, "ac.critic") {
  if (cfg.state_dim == 0) throw std::invalid_argument("ActorCriticConfig: state_dim == 0");
  if (cfg.action_count < 2) throw std::invalid_argument("ActorCriticConfig: need >= 2 actions");
}

PolicyOutput ActorCritic::forward(const nn::Matrix& states) {
  const nn::Matrix h = trunk_act_.forward(trunk_.forward(states));
  PolicyOutput out;
  out.probs = nn::softmax_rows(actor_.forward(h));
  out.values = critic_.forward(h);
  cached_probs_ = out.probs;
  return out;
}

void ActorCritic::backward(const nn::Matrix& dprobs, const nn::Matrix& dvalues) {
  if (cached_probs_.empty()) throw std::logic_error("ActorCritic::backward before forward");
  if (dprobs.rows() != cached_probs_.rows() || dprobs.cols() != cached_probs_.cols()) {
    throw std::invalid_argument(
        "ActorCritic::backward: dprobs shape does not match the cached forward batch");
  }
  if (dvalues.rows() != cached_probs_.rows() || dvalues.cols() != 1) {
    throw std::invalid_argument(
        "ActorCritic::backward: dvalues shape does not match the cached forward batch");
  }
  const nn::Matrix dlogits = nn::softmax_backward(cached_probs_, dprobs);
  nn::Matrix dh = actor_.backward(dlogits);
  dh.add_inplace(critic_.backward(dvalues));
  trunk_.backward(trunk_act_.backward(dh));
}

void ActorCritic::zero_grad() {
  trunk_.zero_grad();
  actor_.zero_grad();
  critic_.zero_grad();
}

std::vector<nn::Parameter> ActorCritic::parameters() {
  std::vector<nn::Parameter> out = trunk_.parameters();
  for (auto& p : actor_.parameters()) out.push_back(p);
  for (auto& p : critic_.parameters()) out.push_back(p);
  return out;
}

std::vector<nn::ConstParameter> ActorCritic::parameters() const {
  std::vector<nn::ConstParameter> out = trunk_.parameters();
  for (const auto& p : actor_.parameters()) out.push_back(p);
  for (const auto& p : critic_.parameters()) out.push_back(p);
  return out;
}

ActorCritic::RowsOutput ActorCritic::forward_rows(const nn::Matrix& states,
                                                  std::size_t row_begin,
                                                  std::size_t row_end,
                                                  RowsWorkspace& ws) const {
  if (states.cols() != cfg_.state_dim) {
    throw std::invalid_argument("ActorCritic: state dim mismatch");
  }
  if (row_begin > row_end || row_end > states.rows()) {
    throw std::invalid_argument("ActorCritic: bad row range");
  }
  trunk_.forward_rows_into(states, row_begin, row_end, ws.trunk);
  trunk_act_.forward_inplace(ws.trunk);
  RowsOutput out;
  out.logits = &actor_.forward_rows(ws.trunk, 0, ws.trunk.rows(), ws.actor_scratch);
  out.values = &critic_.forward_rows(ws.trunk, 0, ws.trunk.rows(), ws.critic_scratch);
  return out;
}

void ActorCritic::act_rows(const nn::Matrix& states, std::size_t row_begin,
                           std::size_t row_end, std::span<nn::Rng> rngs,
                           std::span<Sample> out, RowsWorkspace& ws,
                           std::span<const std::uint8_t> active) const {
  if (rngs.size() != states.rows() || out.size() != states.rows()) {
    throw std::invalid_argument("ActorCritic::act_rows: rngs/out size != states.rows()");
  }
  if (!active.empty() && active.size() != states.rows()) {
    throw std::invalid_argument("ActorCritic::act_rows: active size != states.rows()");
  }
  if (row_begin == row_end) return;
  const RowsOutput fwd = forward_rows(states, row_begin, row_end, ws);
  for (std::size_t i = 0; i < row_end - row_begin; ++i) {
    const std::size_t r = row_begin + i;
    if (!active.empty() && active[r] == 0) continue;
    nn::softmax_row_into(*fwd.logits, i, ws.probs);
    Sample s;
    s.action = rngs[r].categorical(ws.probs);
    s.log_prob = std::log(std::max(ws.probs[s.action], 1e-12));
    s.value = (*fwd.values)(i, 0);
    out[r] = s;
  }
}

double ActorCritic::value_of(std::span<const double> state, RowsWorkspace& ws) const {
  if (state.size() != cfg_.state_dim) {
    throw std::invalid_argument("ActorCritic::value_of: state dim mismatch");
  }
  ws.single.resize_zeroed(1, cfg_.state_dim);
  std::copy(state.begin(), state.end(), ws.single.data().begin());
  const RowsOutput fwd = forward_rows(ws.single, 0, 1, ws);
  return (*fwd.values)(0, 0);
}

ActorCritic::Sample ActorCritic::act(const std::vector<double>& state, nn::Rng& rng) {
  if (state.size() != cfg_.state_dim) throw std::invalid_argument("act: state dim mismatch");
  // Own scratch (act_ws_), not the training path: sampling between forward()
  // and backward() no longer clobbers the cached softmax batch.
  act_ws_.single.resize_zeroed(1, cfg_.state_dim);
  std::copy(state.begin(), state.end(), act_ws_.single.data().begin());
  Sample s;
  act_rows(act_ws_.single, 0, 1, std::span<nn::Rng>(&rng, 1), std::span<Sample>(&s, 1),
           act_ws_);
  return s;
}

}  // namespace ecthub::rl
