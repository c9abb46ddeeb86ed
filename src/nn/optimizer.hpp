// The optimizer.  The paper trains everything with Adam (lr 1e-2 for
// ECT-Price and baselines, 1e-3 for ECT-DRL, weight decay 1e-4); we implement
// Adam with decoupled weight decay.
#pragma once

#include "nn/layers.hpp"

#include <unordered_map>
#include <vector>

namespace ecthub::nn {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;  ///< decoupled (AdamW-style)
  double grad_clip = 0.0;     ///< global-norm clip; 0 disables
};

class Adam {
 public:
  explicit Adam(AdamConfig cfg) : cfg_(cfg) {}

  /// Applies one update; first/second moment slots are keyed by parameter
  /// pointer so the same optimizer can drive several modules.
  void step(std::vector<Parameter>& params);

  [[nodiscard]] const AdamConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t steps_taken() const noexcept { return t_; }

 private:
  struct Slot {
    Matrix m, v;
  };
  AdamConfig cfg_;
  std::unordered_map<const Matrix*, Slot> slots_;
  std::size_t t_ = 0;
};

}  // namespace ecthub::nn
