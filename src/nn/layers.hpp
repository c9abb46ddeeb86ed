// Trainable layers with explicit forward/backward passes.
//
// Each layer caches what its backward pass needs, accumulates parameter
// gradients, and exposes its parameters to the optimizer through the
// Parameter handle list.  Models (NCF, ECT-Price, actor-critic) compose
// these blocks and wire custom loss gradients by hand — a deliberate choice
// over a general autograd: the model graphs in the paper are small and
// fixed, and explicit backprop keeps every gradient testable against finite
// differences.
#pragma once

#include "nn/matrix.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace ecthub::nn {

/// A named (value, gradient) pair registered with the optimizer.
struct Parameter {
  std::string name;
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

/// Read-only view of a parameter tensor — what serialization needs from a
/// const model (checkpointing mid-training without mutable access).
struct ConstParameter {
  std::string name;
  const Matrix* value = nullptr;
};

/// Fully connected layer: Y = X W + b.
class Dense {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng, std::string name = "dense");

  /// X: (batch x in_dim) -> (batch x out_dim); caches X.
  Matrix forward(const Matrix& x);
  /// Inference-only forward over rows [row_begin, row_end) of X, written
  /// into `out` (resized, allocation-free once warm).  Caches nothing and
  /// mutates no member state, so disjoint row blocks of one X may run
  /// concurrently; bit-identical to the same rows of forward(x).
  void forward_rows_into(const Matrix& x, std::size_t row_begin, std::size_t row_end,
                         Matrix& out) const;
  /// dY: (batch x out_dim) -> dX; accumulates dW, db.
  Matrix backward(const Matrix& dy);

  void zero_grad();
  [[nodiscard]] std::vector<Parameter> parameters();
  [[nodiscard]] std::vector<ConstParameter> parameters() const;

  [[nodiscard]] std::size_t in_dim() const noexcept { return w_.rows(); }
  [[nodiscard]] std::size_t out_dim() const noexcept { return w_.cols(); }
  [[nodiscard]] const Matrix& weights() const noexcept { return w_; }
  [[nodiscard]] Matrix& weights() noexcept { return w_; }
  [[nodiscard]] const Matrix& bias() const noexcept { return b_; }

 private:
  std::string name_;
  Matrix w_, b_;
  Matrix dw_, db_;
  Matrix cached_x_;
};

/// Embedding table: maps integer ids to dense rows.
class Embedding {
 public:
  Embedding(std::size_t vocab, std::size_t dim, Rng& rng, std::string name = "embedding");

  /// ids: batch of indices -> (batch x dim); caches ids.
  Matrix forward(const std::vector<std::size_t>& ids);
  /// Accumulates gradients into the rows selected by the cached ids.
  void backward(const Matrix& dy);

  void zero_grad();
  [[nodiscard]] std::vector<Parameter> parameters();

  [[nodiscard]] std::size_t vocab() const noexcept { return table_.rows(); }
  [[nodiscard]] std::size_t dim() const noexcept { return table_.cols(); }
  [[nodiscard]] const Matrix& table() const noexcept { return table_; }

 private:
  std::string name_;
  Matrix table_, dtable_;
  std::vector<std::size_t> cached_ids_;
};

enum class Activation { kRelu, kSigmoid, kTanh, kIdentity };

/// Stateless-parameter activation layer.  forward caches its output y, and
/// backward reads the local derivative from it: 1 - y^2 (tanh), y (1 - y)
/// (sigmoid), y > 0 (ReLU) — the same bits as recomputing the activation.
class ActivationLayer {
 public:
  explicit ActivationLayer(Activation kind) : kind_(kind) {}

  Matrix forward(const Matrix& x);
  /// Inference-only: applies the activation in place without caching
  /// anything (thread-safe const); same values as forward(x).
  void forward_inplace(Matrix& x) const;
  Matrix backward(const Matrix& dy) const;

  [[nodiscard]] Activation kind() const noexcept { return kind_; }

 private:
  Activation kind_;
  Matrix cached_y_;
};

/// Row-wise softmax (numerically stabilized).
[[nodiscard]] Matrix softmax_rows(const Matrix& logits);

/// Softmax of one row of `logits` written into `out` (resized to cols):
/// max-stabilize, exp in column order, accumulate, divide.  softmax_rows is
/// this row by row, so the values are bit-identical to that row of it.
void softmax_row_into(const Matrix& logits, std::size_t row, std::vector<double>& out);

/// Backward of softmax given dL/dsoftmax; returns dL/dlogits.
[[nodiscard]] Matrix softmax_backward(const Matrix& softmax_out, const Matrix& dsoftmax);

[[nodiscard]] double sigmoid(double x);

}  // namespace ecthub::nn
