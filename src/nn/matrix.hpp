// Dense row-major matrix — the tensor type of the from-scratch NN library.
//
// The paper's models (NCF backbone, ECT-Price multi-task heads, PPO
// actor-critic) are all small dense networks; a straightforward double
// matrix with cache-friendly row-major loops is fast enough at CPU scale
// and keeps the numerics transparent for testing.
//
// matmul has one kernel, register-tiled and written once over W-double
// vectors (nn/lanes.hpp): 4-row blocks of 2W-column tiles (two W-lane
// vectors per row), a right edge that steps down one tile width at a time
// to the 4-column tile of W = 2, and single rows and single columns at the
// ragged edges.  It is compiled at W = 2 (SSE2), 4 (AVX2) and 8 (AVX-512F);
// each process runs the widest one its CPU supports, picked once before
// main.  The contract: every output element starts at +0.0 and adds its
// a(i, k) * b(k, j) terms for k ascending, one rounding per multiply and
// one per add, whatever the shape, tile or width — the property that lets a
// batched fleet GEMM reproduce per-hub matrix-vector forwards exactly
// (tests/test_nn.cpp pins it over a randomized shape sweep, and every width
// against W = 2).  The project builds with -ffp-contract=off so that no
// build fuses the multiply-add.
// The right-hand operand must be finite: zero entries of the left one are
// multiplied, not skipped, and 0 * inf is NaN (load_parameters rejects
// non-finite weights).  Row-range products (matmul_rows_into) compute a
// disjoint row-block of the same product, bit-identical to the
// corresponding rows of the full call, which is what lets several workers
// shard one observation matrix.
#pragma once

#include "common/rng.hpp"

#include <cstddef>
#include <vector>

namespace ecthub::nn {

/// The NN library reuses the project-wide deterministic RNG.
using Rng = ::ecthub::Rng;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] static Matrix zeros(std::size_t rows, std::size_t cols);
  /// Gaussian init scaled by 1/sqrt(fan_in) (LeCun-style).
  [[nodiscard]] static Matrix randn(std::size_t rows, std::size_t cols, Rng& rng,
                                    double scale = 1.0);
  [[nodiscard]] static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }
  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }

  /// Reshapes to rows x cols and zero-fills, reusing the existing capacity —
  /// a steady-state caller (e.g. a reused inference workspace) never
  /// reallocates once its largest shape has been seen.
  void resize_zeroed(std::size_t rows, std::size_t cols);

  /// this (r x k) * other (k x c) -> (r x c)
  [[nodiscard]] Matrix matmul(const Matrix& other) const;
  /// Rows [row_begin, row_end) of this * other, written into `out` as a
  /// (row_end - row_begin) x other.cols() block.  Bit-identical to the same
  /// rows of matmul(other); safe to call concurrently on disjoint row ranges
  /// with distinct `out` targets.  `out` is reshaped without a fill (the
  /// kernel writes every element) and keeps its capacity — allocation-free
  /// once warm; it must not alias this or other.
  void matmul_rows_into(const Matrix& other, std::size_t row_begin, std::size_t row_end,
                        Matrix& out) const;
  [[nodiscard]] Matrix transpose() const;

  Matrix& add_inplace(const Matrix& other);
  /// Adds a 1 x cols row vector to every row.
  Matrix& add_row_vector(const Matrix& row);

  /// Column-wise sum -> 1 x cols.
  [[nodiscard]] Matrix col_sum() const;

  /// Concatenates [this | other] along columns (same row count).
  [[nodiscard]] Matrix hconcat(const Matrix& other) const;
  /// Extracts columns [begin, end).
  [[nodiscard]] Matrix slice_cols(std::size_t begin, std::size_t end) const;

  void fill(double v);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ecthub::nn
