#include "nn/layers.hpp"

#include "nn/elementary.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::nn {

double sigmoid(double x) { return 1.0 / (1.0 + elementary::exp(-x)); }

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng, std::string name)
    : name_(std::move(name)),
      w_(Matrix::randn(in_dim, out_dim, rng)),
      b_(1, out_dim, 0.0),
      dw_(in_dim, out_dim, 0.0),
      db_(1, out_dim, 0.0) {
  if (in_dim == 0 || out_dim == 0) throw std::invalid_argument("Dense: zero dimension");
}

Matrix Dense::forward(const Matrix& x) {
  Matrix y;
  forward_rows_into(x, 0, x.rows(), y);
  cached_x_ = x;
  return y;
}

void Dense::forward_rows_into(const Matrix& x, std::size_t row_begin, std::size_t row_end,
                              Matrix& out) const {
  if (x.cols() != w_.rows()) {
    throw std::invalid_argument("Dense::forward_rows_into: dim mismatch");
  }
  x.matmul_rows_into(w_, row_begin, row_end, out);
  out.add_row_vector(b_);
}

Matrix Dense::backward(const Matrix& dy) {
  if (cached_x_.empty()) throw std::logic_error("Dense::backward before forward");
  if (dy.rows() != cached_x_.rows() || dy.cols() != w_.cols()) {
    throw std::invalid_argument("Dense::backward: dY shape mismatch");
  }
  dw_.add_inplace(cached_x_.transpose().matmul(dy));
  db_.add_inplace(dy.col_sum());
  return dy.matmul(w_.transpose());
}

void Dense::zero_grad() {
  dw_.fill(0.0);
  db_.fill(0.0);
}

std::vector<Parameter> Dense::parameters() {
  return {{name_ + ".W", &w_, &dw_}, {name_ + ".b", &b_, &db_}};
}

std::vector<ConstParameter> Dense::parameters() const {
  return {{name_ + ".W", &w_}, {name_ + ".b", &b_}};
}

Embedding::Embedding(std::size_t vocab, std::size_t dim, Rng& rng, std::string name)
    : name_(std::move(name)),
      table_(Matrix::randn(vocab, dim, rng)),
      dtable_(vocab, dim, 0.0) {
  if (vocab == 0 || dim == 0) throw std::invalid_argument("Embedding: zero dimension");
}

Matrix Embedding::forward(const std::vector<std::size_t>& ids) {
  cached_ids_ = ids;
  Matrix out(ids.size(), table_.cols());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= table_.rows()) throw std::out_of_range("Embedding: id out of vocab");
    for (std::size_t c = 0; c < table_.cols(); ++c) out(i, c) = table_(ids[i], c);
  }
  return out;
}

void Embedding::backward(const Matrix& dy) {
  if (dy.rows() != cached_ids_.size() || dy.cols() != table_.cols()) {
    throw std::invalid_argument("Embedding::backward: dY shape mismatch");
  }
  for (std::size_t i = 0; i < cached_ids_.size(); ++i) {
    for (std::size_t c = 0; c < table_.cols(); ++c) dtable_(cached_ids_[i], c) += dy(i, c);
  }
}

void Embedding::zero_grad() { dtable_.fill(0.0); }

std::vector<Parameter> Embedding::parameters() {
  return {{name_ + ".table", &table_, &dtable_}};
}

Matrix ActivationLayer::forward(const Matrix& x) {
  Matrix y = x;
  forward_inplace(y);
  cached_y_ = y;
  return y;
}

void ActivationLayer::forward_inplace(Matrix& x) const {
  switch (kind_) {
    case Activation::kRelu:
      for (double& v : x.data()) v = v > 0.0 ? v : 0.0;
      return;
    case Activation::kSigmoid:
      for (double& v : x.data()) v = sigmoid(v);
      return;
    case Activation::kTanh:
      elementary::tanh_inplace(x.data());
      return;
    case Activation::kIdentity:
      return;
  }
  throw std::logic_error("ActivationLayer: invalid kind");
}

Matrix ActivationLayer::backward(const Matrix& dy) const {
  if (cached_y_.empty()) throw std::logic_error("ActivationLayer::backward before forward");
  Matrix dx(dy.rows(), dy.cols());
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    for (std::size_t c = 0; c < dy.cols(); ++c) {
      const double y = cached_y_(r, c);
      double g = 1.0;
      switch (kind_) {
        case Activation::kRelu: g = y > 0.0 ? 1.0 : 0.0; break;
        case Activation::kSigmoid: g = y * (1.0 - y); break;
        case Activation::kTanh: g = 1.0 - y * y; break;
        case Activation::kIdentity: g = 1.0; break;
      }
      dx(r, c) = dy(r, c) * g;
    }
  }
  return dx;
}

Matrix softmax_rows(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  std::vector<double> row;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    softmax_row_into(logits, r, row);
    std::copy(row.begin(), row.end(),
              out.data().begin() + static_cast<std::ptrdiff_t>(r * out.cols()));
  }
  return out;
}

void softmax_row_into(const Matrix& logits, std::size_t row, std::vector<double>& out) {
  if (row >= logits.rows()) throw std::out_of_range("softmax_row_into: row out of range");
  const std::size_t cols = logits.cols();
  out.resize(cols);
  double mx = logits(row, 0);
  for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, logits(row, c));
  double denom = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    out[c] = elementary::exp(logits(row, c) - mx);
    denom += out[c];
  }
  for (std::size_t c = 0; c < cols; ++c) out[c] /= denom;
}

Matrix softmax_backward(const Matrix& softmax_out, const Matrix& dsoftmax) {
  if (softmax_out.rows() != dsoftmax.rows() || softmax_out.cols() != dsoftmax.cols()) {
    throw std::invalid_argument("softmax_backward: shape mismatch");
  }
  Matrix dlogits(softmax_out.rows(), softmax_out.cols());
  for (std::size_t r = 0; r < softmax_out.rows(); ++r) {
    double dot = 0.0;
    for (std::size_t c = 0; c < softmax_out.cols(); ++c) {
      dot += softmax_out(r, c) * dsoftmax(r, c);
    }
    for (std::size_t c = 0; c < softmax_out.cols(); ++c) {
      dlogits(r, c) = softmax_out(r, c) * (dsoftmax(r, c) - dot);
    }
  }
  return dlogits;
}

}  // namespace ecthub::nn
