#include "nn/matrix.hpp"

#include "nn/lanes.hpp"

#include <cmath>
#include <stdexcept>

namespace ecthub::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols, 0.0); }

Matrix Matrix::randn(std::size_t rows, std::size_t cols, Rng& rng, double scale) {
  Matrix m(rows, cols);
  const double sd = scale / std::sqrt(static_cast<double>(rows > 0 ? rows : 1));
  for (double& x : m.data_) x = rng.normal(0.0, sd);
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) throw std::invalid_argument("from_rows: ragged input");
    for (std::size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix: index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix: index out of range");
  return data_[r * cols_ + c];
}

void Matrix::resize_zeroed(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);  // keeps capacity: no realloc once warm
}

// The per-width entry points of the GEMM (nn/lanes.hpp): one lane body,
// compiled for each width's instruction set.
namespace lanes {

template <>
void matmul_rows_w<2>(const double* a, const double* b, double* out, std::size_t row_begin,
                      std::size_t row_end, std::size_t inner, std::size_t cols) {
  matmul_rows<2>(a, b, out, row_begin, row_end, inner, cols);
}

template <>
[[gnu::target("avx2")]] void matmul_rows_w<4>(const double* a, const double* b, double* out,
                                              std::size_t row_begin, std::size_t row_end,
                                              std::size_t inner, std::size_t cols) {
  matmul_rows<4>(a, b, out, row_begin, row_end, inner, cols);
}

template <>
[[gnu::target("avx512f")]] void matmul_rows_w<8>(const double* a, const double* b, double* out,
                                                 std::size_t row_begin, std::size_t row_end,
                                                 std::size_t inner, std::size_t cols) {
  matmul_rows<8>(a, b, out, row_begin, row_end, inner, cols);
}

}  // namespace lanes

namespace {

using MatmulRows = void (*)(const double*, const double*, double*, std::size_t, std::size_t,
                            std::size_t, std::size_t);

// The widest instantiation this CPU runs, bound before main.
const MatmulRows matmul_kernel =
    lanes::widest<MatmulRows>(&lanes::matmul_rows_w<2>, &lanes::matmul_rows_w<4>,
                              &lanes::matmul_rows_w<8>);

}  // namespace

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_rows_into(other, 0, rows_, out);
  return out;
}

void Matrix::matmul_rows_into(const Matrix& other, std::size_t row_begin,
                              std::size_t row_end, Matrix& out) const {
  if (cols_ != other.rows_) throw std::invalid_argument("matmul: inner dimension mismatch");
  if (row_begin > row_end || row_end > rows_) {
    throw std::invalid_argument("matmul_rows_into: bad row range");
  }
  if (&out == this || &out == &other) {
    throw std::invalid_argument("matmul_rows_into: out must not alias an operand");
  }
  // No fill: the kernel writes every element, and resize keeps the capacity.
  out.rows_ = row_end - row_begin;
  out.cols_ = other.cols_;
  out.data_.resize(out.rows_ * out.cols_);
  matmul_kernel(data_.data(), other.data_.data(), out.data_.data(), row_begin, row_end, cols_,
                other.cols_);
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = data_[r * cols_ + c];
  }
  return out;
}

Matrix& Matrix::add_inplace(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("add_inplace: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::add_row_vector(const Matrix& rowv) {
  if (rowv.rows_ != 1 || rowv.cols_ != cols_) {
    throw std::invalid_argument("add_row_vector: expected 1 x cols vector");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] += rowv.data_[c];
  }
  return *this;
}

Matrix Matrix::col_sum() const {
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.data_[c] += data_[r * cols_ + c];
  }
  return out;
}

Matrix Matrix::hconcat(const Matrix& other) const {
  if (rows_ != other.rows_) throw std::invalid_argument("hconcat: row count mismatch");
  Matrix out(rows_, cols_ + other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(r, c) = data_[r * cols_ + c];
    for (std::size_t c = 0; c < other.cols_; ++c) out(r, cols_ + c) = other(r, c);
  }
  return out;
}

Matrix Matrix::slice_cols(std::size_t begin, std::size_t end) const {
  if (begin > end || end > cols_) throw std::invalid_argument("slice_cols: bad range");
  Matrix out(rows_, end - begin);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = begin; c < end; ++c) out(r, c - begin) = data_[r * cols_ + c];
  }
  return out;
}

void Matrix::fill(double v) {
  for (double& x : data_) x = v;
}

}  // namespace ecthub::nn
