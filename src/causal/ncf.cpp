#include "causal/ncf.hpp"

#include <stdexcept>

namespace ecthub::causal {

NcfBackbone::NcfBackbone(NcfConfig cfg, nn::Rng& rng, const std::string& name)
    : dim_(cfg.embedding_dim),
      station_emb_(cfg.num_stations, cfg.embedding_dim, rng, name + ".station_emb"),
      time_emb_(cfg.time_vocab, cfg.embedding_dim, rng, name + ".time_emb") {
  if (cfg.embedding_dim == 0) throw std::invalid_argument("NcfConfig: embedding_dim == 0");
}

nn::Matrix NcfBackbone::forward(const std::vector<std::size_t>& station_ids,
                                const std::vector<std::size_t>& time_ids) {
  if (station_ids.size() != time_ids.size()) {
    throw std::invalid_argument("NcfBackbone::forward: id vector size mismatch");
  }
  const nn::Matrix es = station_emb_.forward(station_ids);
  const nn::Matrix et = time_emb_.forward(time_ids);
  nn::Matrix plus = es;
  plus.add_inplace(et);
  return es.hconcat(et).hconcat(plus);
}

void NcfBackbone::backward(const nn::Matrix& dz) {
  if (dz.cols() != feature_dim()) {
    throw std::invalid_argument("NcfBackbone::backward: dZ width mismatch");
  }
  const nn::Matrix d_es = dz.slice_cols(0, dim_);
  const nn::Matrix d_et = dz.slice_cols(dim_, 2 * dim_);
  const nn::Matrix d_plus = dz.slice_cols(2 * dim_, 3 * dim_);
  // The "plus" branch contributes to both embeddings.
  nn::Matrix ds = d_es;
  ds.add_inplace(d_plus);
  nn::Matrix dt = d_et;
  dt.add_inplace(d_plus);
  station_emb_.backward(ds);
  time_emb_.backward(dt);
}

void NcfBackbone::zero_grad() {
  station_emb_.zero_grad();
  time_emb_.zero_grad();
}

std::vector<nn::Parameter> NcfBackbone::parameters() {
  std::vector<nn::Parameter> out = station_emb_.parameters();
  for (auto& p : time_emb_.parameters()) out.push_back(p);
  return out;
}

namespace {
nn::MlpConfig head_config(const NcfConfig& cfg, nn::Activation output_activation) {
  nn::MlpConfig mc;
  mc.layer_dims.push_back(3 * cfg.embedding_dim);
  for (std::size_t h : cfg.hidden_dims) mc.layer_dims.push_back(h);
  mc.layer_dims.push_back(1);
  mc.output_activation = output_activation;
  return mc;
}
}  // namespace

NcfRegressor::NcfRegressor(NcfConfig cfg, nn::Activation output_activation, nn::Rng& rng,
                           const std::string& name)
    : backbone_(cfg, rng, name),
      head_(head_config(cfg, output_activation), rng, name + ".head") {}

nn::Matrix NcfRegressor::forward(const std::vector<std::size_t>& station_ids,
                                 const std::vector<std::size_t>& time_ids) {
  return head_.forward(backbone_.forward(station_ids, time_ids));
}

double NcfRegressor::train_step(const Batch& batch, const std::vector<double>& targets,
                                nn::Adam& opt) {
  if (targets.size() != batch.size()) {
    throw std::invalid_argument("NcfRegressor::train_step: target size mismatch");
  }
  zero_grad();
  const nn::Matrix pred = forward(batch.station_ids, batch.time_ids);
  const double n = static_cast<double>(batch.size());
  double loss = 0.0;
  nn::Matrix dpred(pred.rows(), 1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double diff = pred(i, 0) - targets[i];
    loss += diff * diff;
    dpred(i, 0) = 2.0 * diff / n;
  }
  backbone_.backward(head_.backward(dpred));
  auto params = parameters();
  opt.step(params);
  return loss / n;
}

double NcfRegressor::predict(std::size_t station_id, std::size_t time_id) {
  return forward({station_id}, {time_id})(0, 0);
}

std::vector<nn::Parameter> NcfRegressor::parameters() {
  std::vector<nn::Parameter> out = backbone_.parameters();
  for (auto& p : head_.parameters()) out.push_back(p);
  return out;
}

void NcfRegressor::zero_grad() {
  backbone_.zero_grad();
  head_.zero_grad();
}

}  // namespace ecthub::causal
