// Neural-Collaborative-Filtering backbone and scalar regressor.
//
// Follows the paper's Fig. 9 tower: station and time embeddings are combined
// element-wise ("element-wise plus") and concatenated with the raw
// embeddings, then fed to an MLP head.  The same backbone serves as the base
// model for ECT-Price's two tasks and for all three uplift baselines (the
// paper: "All the baselines and the two tasks in ECT-Price use NCF as base
// models").
#pragma once

#include "causal/features.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

#include <string>
#include <vector>

namespace ecthub::causal {

struct NcfConfig {
  std::size_t num_stations = 12;
  std::size_t time_vocab = kTimeVocab;
  std::size_t embedding_dim = 16;
  std::vector<std::size_t> hidden_dims = {32};
};

/// Embedding towers producing the concatenated feature matrix
/// Z = [emb_s | emb_t | emb_s + emb_t] of width 3 * embedding_dim.
class NcfBackbone {
 public:
  NcfBackbone(NcfConfig cfg, nn::Rng& rng, const std::string& name);

  /// (batch) ids -> (batch x feature_dim) features; caches for backward.
  nn::Matrix forward(const std::vector<std::size_t>& station_ids,
                     const std::vector<std::size_t>& time_ids);
  /// Routes dL/dZ back into both embedding tables.
  void backward(const nn::Matrix& dz);

  void zero_grad();
  [[nodiscard]] std::vector<nn::Parameter> parameters();

  [[nodiscard]] std::size_t feature_dim() const noexcept { return 3 * dim_; }

 private:
  std::size_t dim_;
  nn::Embedding station_emb_;
  nn::Embedding time_emb_;
};

/// Backbone + MLP head emitting one scalar per item.  Output activation is
/// sigmoid for probability targets (Y, T) and identity for unbounded
/// pseudo-outcome regression (IPS / DR transformed outcomes).
class NcfRegressor {
 public:
  NcfRegressor(NcfConfig cfg, nn::Activation output_activation, nn::Rng& rng,
               const std::string& name);

  /// Predictions as a (batch x 1) matrix.
  nn::Matrix forward(const std::vector<std::size_t>& station_ids,
                     const std::vector<std::size_t>& time_ids);

  /// One optimizer step against MSE on `targets`; returns the loss.
  double train_step(const Batch& batch, const std::vector<double>& targets, nn::Adam& opt);

  /// Convenience scalar prediction.
  [[nodiscard]] double predict(std::size_t station_id, std::size_t time_id);

  [[nodiscard]] std::vector<nn::Parameter> parameters();
  void zero_grad();

 private:
  NcfBackbone backbone_;
  nn::Mlp head_;
};

}  // namespace ecthub::causal
