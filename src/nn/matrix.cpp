#include "nn/matrix.hpp"

#include <cmath>
#include <cstring>
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

namespace {

// Two doubles per vector: an SSE2 xmm register on x86-64.  Elementwise vector
// arithmetic rounds every lane exactly like the scalar operation, and a tile
// only decides which output elements share registers, never the order of an
// element's sum.
using Vec = double __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(double);
constexpr std::size_t kTileCols = 2 * kLanes;  // two vectors per tile row

// A Rows x kTileCols tile of out at column j: a points at A(i, 0), out at
// out(i, 0).  Each element's accumulator starts at +0.0 and adds
// a(i, k) * b(k, j) for k ascending, so with inner == 0 the tile stores
// +0.0.  b is offset only inside the k loop because it may be null when
// inner == 0 (an empty matrix owns no storage).  The unroll pragmas keep
// the accumulator arrays in registers: GCC -O2 leaves these loops rolled
// and the arrays on the stack.
template <std::size_t Rows>
void wide_tile(const double* a, const double* b, double* out, std::size_t j, std::size_t inner,
               std::size_t cols) {
  Vec lo[Rows] = {};
  Vec hi[Rows] = {};
  for (std::size_t k = 0; k < inner; ++k) {
    Vec b_lo;
    Vec b_hi;
    std::memcpy(&b_lo, b + k * cols + j, sizeof b_lo);
    std::memcpy(&b_hi, b + k * cols + j + kLanes, sizeof b_hi);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < Rows; ++r) {
      const double av = a[r * inner + k];
      lo[r] += av * b_lo;
      hi[r] += av * b_hi;
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < Rows; ++r) {
    std::memcpy(out + r * cols + j, &lo[r], sizeof lo[r]);
    std::memcpy(out + r * cols + j + kLanes, &hi[r], sizeof hi[r]);
  }
}

// The Rows x 1 tile at column j of a ragged right edge, same accumulation.
template <std::size_t Rows>
void narrow_tile(const double* a, const double* b, double* out, std::size_t j,
                 std::size_t inner, std::size_t cols) {
  double acc[Rows] = {};
  for (std::size_t k = 0; k < inner; ++k) {
    const double bv = b[k * cols + j];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < Rows; ++r) acc[r] += a[r * inner + k] * bv;
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < Rows; ++r) out[r * cols + j] = acc[r];
}

template <std::size_t Rows>
void row_block(const double* a, const double* b, double* out, std::size_t inner,
               std::size_t cols) {
  std::size_t j = 0;
  for (; j + kTileCols <= cols; j += kTileCols) wide_tile<Rows>(a, b, out, j, inner, cols);
  for (; j < cols; ++j) narrow_tile<Rows>(a, b, out, j, inner, cols);
}

// out(i - row_begin, j) = sum_k a(i, k) * b(k, j) for i in [row_begin,
// row_end): 4-row blocks, then single rows at the ragged bottom edge.  Every
// element of out is written.
void matmul_kernel(const double* a, const double* b, double* out, std::size_t row_begin,
                   std::size_t row_end, std::size_t inner, std::size_t cols) {
  std::size_t i = row_begin;
  for (; i + 4 <= row_end; i += 4) {
    row_block<4>(a + i * inner, b, out + (i - row_begin) * cols, inner, cols);
  }
  for (; i < row_end; ++i) {
    row_block<1>(a + i * inner, b, out + (i - row_begin) * cols, inner, cols);
  }
}

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
