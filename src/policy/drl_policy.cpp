#include "policy/drl_policy.hpp"

#include "common/binio.hpp"
#include "nn/serialize.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::policy {

namespace {

constexpr std::uint32_t kSectionIds[] = {1, 2};  // widths, blob
constexpr binio::Container kCheckpoint{"DRL checkpoint", "ECDR", 1, kSectionIds};

nn::MlpConfig actor_head_config(const DrlPolicyConfig& cfg) {
  nn::MlpConfig mc;
  mc.layer_dims = {cfg.trunk_dim, cfg.head_dim, cfg.action_count};
  mc.output_activation = nn::Activation::kIdentity;
  return mc;
}

/// The checkpoint's widths, once the actor's weights and biases — Σ (in + 1)
/// · out doubles over its three layers — are known to fit in the blob:
/// decided without overflow for any widths, before a single layer is sized.
const DrlPolicyConfig& blob_sized(const DrlCheckpoint& checkpoint) {
  const DrlPolicyConfig& cfg = checkpoint.config;
  const std::uint64_t limit = checkpoint.blob.size() / 8;
  const std::uint64_t layers[3][2] = {{cfg.state_dim, cfg.trunk_dim},
                                      {cfg.trunk_dim, cfg.head_dim},
                                      {cfg.head_dim, cfg.action_count}};
  std::uint64_t total = 0;
  for (const auto& [in, out] : layers) {
    if (in >= limit || out > (limit - total) / (in + 1)) {
      throw binio::FormatError("DRL checkpoint: a " + std::to_string(checkpoint.blob.size()) +
                               "-byte parameter blob cannot hold the layers its widths "
                               "describe");
    }
    total += (in + 1) * out;
  }
  return cfg;
}

}  // namespace

std::string DrlCheckpoint::serialize() const {
  std::string widths;
  binio::put_u64(widths, config.state_dim);
  binio::put_u64(widths, config.action_count);
  binio::put_u64(widths, config.trunk_dim);
  binio::put_u64(widths, config.head_dim);
  const std::string_view payloads[] = {widths, blob};
  return binio::seal(kCheckpoint, payloads);
}

DrlCheckpoint DrlCheckpoint::parse(std::string_view bytes) {
  std::vector<std::string_view> sections;
  try {
    sections = binio::open(bytes, kCheckpoint);
  } catch (const binio::MagicError& e) {
    throw binio::MagicError(std::string(e.what()) +
                            " (a checkpoint saved before the ECDR format must be re-exported)");
  }
  DrlCheckpoint ckpt;
  binio::Reader in(sections[0], "DRL checkpoint widths");
  ckpt.config.state_dim = in.u64();
  ckpt.config.action_count = in.u64();
  ckpt.config.trunk_dim = in.u64();
  ckpt.config.head_dim = in.u64();
  in.expect_end();
  ckpt.blob = sections[1];
  return ckpt;
}

DrlPolicyConfig DrlPolicy::validated(DrlPolicyConfig cfg) {
  if (cfg.state_dim == 0) throw std::invalid_argument("DrlPolicyConfig: state_dim == 0");
  if (cfg.action_count < 2) {
    throw std::invalid_argument("DrlPolicyConfig: need >= 2 actions");
  }
  if (cfg.trunk_dim == 0 || cfg.head_dim == 0) {
    throw std::invalid_argument("DrlPolicyConfig: zero layer width");
  }
  return cfg;
}

DrlPolicy::DrlPolicy(DrlPolicyConfig cfg, nn::Rng& rng)
    : cfg_(validated(cfg)),
      trunk_(cfg_.state_dim, cfg_.trunk_dim, rng, "ac.trunk"),
      trunk_act_(nn::Activation::kTanh),
      actor_(actor_head_config(cfg_), rng, "ac.actor") {}

DrlPolicy::DrlPolicy(DrlPolicyConfig cfg, nn::Rng&& scratch_rng)
    : DrlPolicy(cfg, scratch_rng) {}

DrlPolicy::DrlPolicy(const DrlCheckpoint& checkpoint)
    // Every checkpoint-restored policy owns its throwaway init RNG: the
    // draws are overwritten by the blob below, and no state is shared with
    // other policies loaded on the same thread (a fixed seed keeps even the
    // transient pre-load weights deterministic).
    : DrlPolicy(blob_sized(checkpoint), nn::Rng(0)) {
  std::vector<nn::Parameter> params = parameters();
  nn::load_parameters(checkpoint.blob, params);
}

std::unique_ptr<Policy::Workspace> DrlPolicy::make_workspace() const {
  return std::make_unique<BatchWorkspace>();
}

void DrlPolicy::decide_rows(const nn::Matrix& obs, std::size_t row_begin,
                            std::size_t row_end, std::span<std::size_t> actions,
                            Workspace& ws) const {
  check_rows(obs, row_begin, row_end, actions);
  if (obs.rows() == 0 || row_begin == row_end) return;
  if (obs.cols() != cfg_.state_dim) {
    throw std::invalid_argument("DrlPolicy::decide_rows: state dim mismatch");
  }
  auto* scratch = dynamic_cast<BatchWorkspace*>(&ws);
  if (scratch == nullptr) {
    throw std::invalid_argument(
        "DrlPolicy::decide_rows: workspace was not created by make_workspace()");
  }
  trunk_.forward_rows_into(obs, row_begin, row_end, scratch->trunk);
  trunk_act_.forward_inplace(scratch->trunk);
  const nn::Matrix& logits =
      actor_.forward_rows(scratch->trunk, 0, scratch->trunk.rows(), scratch->head);
  const double* row = logits.data().data();
  for (std::size_t i = 0; i < logits.rows(); ++i, row += cfg_.action_count) {
    std::size_t best = 0;
    for (std::size_t a = 1; a < cfg_.action_count; ++a) {
      if (row[a] > row[best]) best = a;
    }
    actions[row_begin + i] = best;
  }
}

std::size_t DrlPolicy::decide(std::span<const double> obs) {
  if (obs.size() != cfg_.state_dim) {
    throw std::invalid_argument("DrlPolicy::decide: state dim mismatch");
  }
  scratch_.single.resize_zeroed(1, cfg_.state_dim);
  std::copy(obs.begin(), obs.end(), scratch_.single.data().begin());
  std::size_t action = 0;
  decide_rows(scratch_.single, 0, 1, std::span<std::size_t>(&action, 1), scratch_);
  return action;
}

void DrlPolicy::decide_batch(const nn::Matrix& obs, std::span<std::size_t> actions) {
  if (actions.size() != obs.rows()) {
    throw std::invalid_argument("DrlPolicy::decide_batch: row/action count mismatch");
  }
  if (obs.rows() == 0) return;
  if (obs.cols() != cfg_.state_dim) {
    throw std::invalid_argument("DrlPolicy::decide_batch: state dim mismatch");
  }
  decide_rows(obs, 0, obs.rows(), actions, scratch_);
}

DrlCheckpoint DrlPolicy::checkpoint() {
  DrlCheckpoint ckpt;
  ckpt.config = cfg_;
  ckpt.blob = nn::save_parameters(parameters());
  return ckpt;
}

std::vector<nn::Parameter> DrlPolicy::parameters() {
  std::vector<nn::Parameter> out = trunk_.parameters();
  for (auto& p : actor_.parameters()) out.push_back(p);
  return out;
}

}  // namespace ecthub::policy
