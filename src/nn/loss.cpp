#include "nn/loss.hpp"

#include "nn/elementary.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::nn {

std::pair<double, Matrix> mse_loss(const Matrix& pred, const Matrix& target) {
  if (pred.rows() != target.rows() || pred.cols() != target.cols()) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  const double n = static_cast<double>(pred.size());
  double loss = 0.0;
  Matrix grad(pred.rows(), pred.cols());
  for (std::size_t i = 0; i < pred.data().size(); ++i) {
    const double diff = pred.data()[i] - target.data()[i];
    loss += diff * diff;
    grad.data()[i] = 2.0 * diff / n;
  }
  return {loss / n, grad};
}

std::pair<double, Matrix> bce_loss(const Matrix& prob, const Matrix& target) {
  if (prob.rows() != target.rows() || prob.cols() != target.cols()) {
    throw std::invalid_argument("bce_loss: shape mismatch");
  }
  constexpr double kEps = 1e-7;
  const double n = static_cast<double>(prob.size());
  double loss = 0.0;
  Matrix grad(prob.rows(), prob.cols());
  for (std::size_t i = 0; i < prob.data().size(); ++i) {
    const double p = std::clamp(prob.data()[i], kEps, 1.0 - kEps);
    const double y = target.data()[i];
    loss += -(y * elementary::log(p) + (1.0 - y) * elementary::log(1.0 - p));
    grad.data()[i] = (p - y) / (p * (1.0 - p)) / n;
  }
  return {loss / n, grad};
}

}  // namespace ecthub::nn
