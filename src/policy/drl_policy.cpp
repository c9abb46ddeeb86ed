#include "policy/drl_policy.hpp"

#include "nn/serialize.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ecthub::policy {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x4543545044524c31ULL;  // "ECTPDRL1"

nn::MlpConfig actor_head_config(const DrlPolicyConfig& cfg) {
  nn::MlpConfig mc;
  mc.layer_dims = {cfg.trunk_dim, cfg.head_dim, cfg.action_count};
  mc.output_activation = nn::Activation::kIdentity;
  return mc;
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("DrlCheckpoint::load: truncated stream");
  return v;
}

}  // namespace

void DrlCheckpoint::save(std::ostream& out) const {
  write_u64(out, kCheckpointMagic);
  write_u64(out, config.state_dim);
  write_u64(out, config.action_count);
  write_u64(out, config.trunk_dim);
  write_u64(out, config.head_dim);
  write_u64(out, blob.size());
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) throw std::runtime_error("DrlCheckpoint::save: write failed");
}

DrlCheckpoint DrlCheckpoint::load(std::istream& in) {
  if (read_u64(in) != kCheckpointMagic) {
    throw std::runtime_error("DrlCheckpoint::load: bad magic (not a DRL checkpoint)");
  }
  DrlCheckpoint ckpt;
  ckpt.config.state_dim = read_u64(in);
  ckpt.config.action_count = read_u64(in);
  ckpt.config.trunk_dim = read_u64(in);
  ckpt.config.head_dim = read_u64(in);
  const std::uint64_t blob_size = read_u64(in);
  // Guard against garbage sizes from corrupt files before allocating (the
  // largest plausible actor blob is a few MB).
  if (blob_size > (1ULL << 30)) {
    throw std::runtime_error("DrlCheckpoint::load: implausible blob size (corrupt file)");
  }
  ckpt.blob.resize(blob_size);
  in.read(ckpt.blob.data(), static_cast<std::streamsize>(blob_size));
  if (!in) throw std::runtime_error("DrlCheckpoint::load: truncated parameter blob");
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
    : DrlPolicy(checkpoint.config, nn::Rng(0)) {
  std::istringstream in(checkpoint.blob);
  std::vector<nn::Parameter> params = parameters();
  nn::load_parameters(in, params);
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
  std::ostringstream out;
  nn::save_parameters(out, parameters());
  ckpt.blob = out.str();
  return ckpt;
}

std::vector<nn::Parameter> DrlPolicy::parameters() {
  std::vector<nn::Parameter> out = trunk_.parameters();
  for (auto& p : actor_.parameters()) out.push_back(p);
  return out;
}

}  // namespace ecthub::policy
