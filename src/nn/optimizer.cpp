#include "nn/optimizer.hpp"

#include "nn/elementary.hpp"

#include <cmath>
#include <stdexcept>

namespace ecthub::nn {

void Adam::step(std::vector<Parameter>& params) {
  ++t_;
  // Optional global-norm gradient clipping before the moment update.
  double scale = 1.0;
  if (cfg_.grad_clip > 0.0) {
    double norm_sq = 0.0;
    for (const auto& p : params) {
      for (double g : p.grad->data()) norm_sq += g * g;
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > cfg_.grad_clip) scale = cfg_.grad_clip / norm;
  }
  const double bc1 = 1.0 - elementary::powi(cfg_.beta1, t_);
  const double bc2 = 1.0 - elementary::powi(cfg_.beta2, t_);
  for (auto& p : params) {
    if (p.value == nullptr || p.grad == nullptr) throw std::invalid_argument("Adam: null param");
    auto& slot = slots_[p.value];
    if (slot.m.empty()) {
      slot.m = Matrix::zeros(p.value->rows(), p.value->cols());
      slot.v = Matrix::zeros(p.value->rows(), p.value->cols());
    }
    auto& val = p.value->data();
    const auto& grad = p.grad->data();
    for (std::size_t i = 0; i < val.size(); ++i) {
      const double g = grad[i] * scale;
      slot.m.data()[i] = cfg_.beta1 * slot.m.data()[i] + (1.0 - cfg_.beta1) * g;
      slot.v.data()[i] = cfg_.beta2 * slot.v.data()[i] + (1.0 - cfg_.beta2) * g * g;
      const double mhat = slot.m.data()[i] / bc1;
      const double vhat = slot.v.data()[i] / bc2;
      val[i] -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) + cfg_.weight_decay * val[i]);
    }
  }
}

}  // namespace ecthub::nn
