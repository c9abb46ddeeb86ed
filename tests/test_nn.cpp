// Tests for the from-scratch NN library.  Every layer's analytic gradient is
// verified against central finite differences — the property that keeps the
// hand-written backprop in ECT-Price and PPO trustworthy.
#include "nn/elementary.hpp"
#include "nn/lanes.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace ecthub::nn {
namespace {

// ---------------------------------------------------------------- Matrix

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_THROW(m(2, 0), std::out_of_range);
}

TEST(Matrix, MatmulKnownValues) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

// Reference product in the exact accumulation order the shipping kernel
// promises: per output element, start at +0.0 and add the k terms in
// ascending order.  This reference skips zero operands of A; the kernel does
// not, which changes no bit while B is finite (the sum can never become
// -0.0, and 0 * finite adds a zero) — the contract nn/matrix.hpp states and
// load_parameters enforces for weights.  The kernel must match this to the
// last bit, not within a tolerance.
Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      for (std::size_t k = 0; k < a.cols(); ++k) {
        const double av = a(i, k);
        if (av == 0.0) continue;
        out(i, j) += av * b(k, j);
      }
    }
  }
  return out;
}

void expect_bit_equal(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      // EXPECT_EQ on doubles is exact — bit-identity is the contract here.
      EXPECT_EQ(got(r, c), want(r, c)) << what << " (" << r << ", " << c << ")";
    }
  }
}

// Comparison against the *test-local* reference above: exact on
// contraction-free builds; under -DECTHUB_NATIVE=ON the compiler may fuse
// the reference's multiply-add differently from the shipping kernel's
// (both are correct — fused is the more precise), so the reference check
// relaxes to a 1-ulp-scale tolerance there.  The load-bearing exact
// identity — row blocks vs the full product — is pinned through shipping
// code only (see MatmulRowsIntoMatchesTheFullProductRowBlocks), which holds
// on every build.
void expect_matches_reference(const Matrix& got, const Matrix& want, const char* what) {
#if defined(__FP_FAST_FMA)
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      EXPECT_NEAR(got(r, c), want(r, c),
                  1e-13 * std::max(1.0, std::abs(want(r, c))))
          << what << " (" << r << ", " << c << ")";
    }
  }
#else
  expect_bit_equal(got, want, what);
#endif
}

TEST(Matrix, MatmulGoldenSixteenRows) {
  // A batched 16-row product; a structured integer-valued product keeps the
  // expected values exactly representable.
  Matrix a(16, 5);
  Matrix b(5, 7);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      a(r, c) = static_cast<double>((r * 5 + c) % 11) - 3.0;
    }
  }
  for (std::size_t r = 0; r < b.rows(); ++r) {
    for (std::size_t c = 0; c < b.cols(); ++c) {
      b(r, c) = static_cast<double>((r * 7 + c) % 13) - 5.0;
    }
  }
  expect_bit_equal(a.matmul(b), matmul_reference(a, b), "golden 16x5 * 5x7");
}

TEST(Matrix, MatmulMatchesReferenceAcrossRandomizedShapes) {
  // Randomized sweep across odd / tall / wide / tiny / empty shapes and the
  // kernel's tile edges (4-row blocks, 4-column tiles, single columns at the
  // ragged edge), including zero-entry-dense A matrices that the reference
  // skips and the kernel multiplies.  The product lands in an output filled
  // with NaN at its shape, so an element the kernel fails to write shows
  // up; with inner == 0 every element must come out +0.0.
  Rng rng(20240730);
  const std::size_t rows_set[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 64, 129};
  const std::size_t inner_set[] = {0, 1, 3, 33, 64};
  const std::size_t cols_set[] = {1, 3, 4, 5, 7, 8, 9, 33, 64, 127, 128, 129, 200};
  for (const std::size_t rows : rows_set) {
    for (const std::size_t inner : inner_set) {
      for (const std::size_t cols : cols_set) {
        Matrix a(rows, inner);
        Matrix b(inner, cols);
        for (double& x : a.data()) {
          x = rng.uniform(0.0, 1.0) < 0.15 ? 0.0 : rng.normal(0.0, 1.0);
        }
        for (double& x : b.data()) x = rng.normal(0.0, 1.0);
        const Matrix want = matmul_reference(a, b);
        const std::string what = std::to_string(rows) + "x" + std::to_string(inner) +
                                 " * " + std::to_string(inner) + "x" + std::to_string(cols);
        Matrix got(rows, cols, std::numeric_limits<double>::quiet_NaN());
        a.matmul_rows_into(b, 0, rows, got);
        expect_matches_reference(got, want, what.c_str());
        if (inner == 0) {
          for (const double x : got.data()) EXPECT_FALSE(std::signbit(x)) << what;
        }
      }
    }
  }
}

TEST(Matrix, MatmulRowsIntoMatchesTheFullProductRowBlocks) {
  // Arbitrary row blocks — 1-row, ragged, empty — of the full product must
  // come out bit-identical.  This is the sharding contract the lockstep
  // slot phase's row-block GEMMs rely on.
  Rng rng(77);
  const Matrix a = Matrix::randn(37, 12, rng);
  const Matrix b = Matrix::randn(12, 9, rng);
  const Matrix full = a.matmul(b);
  const std::size_t splits[][2] = {{0, 37}, {0, 1},  {36, 37}, {0, 8},
                                   {8, 19}, {19, 37}, {5, 6},  {13, 13}};
  Matrix block;  // reused: exercises the capacity-reusing resize too
  for (const auto& split : splits) {
    a.matmul_rows_into(b, split[0], split[1], block);
    ASSERT_EQ(block.rows(), split[1] - split[0]);
    for (std::size_t r = split[0]; r < split[1]; ++r) {
      for (std::size_t c = 0; c < full.cols(); ++c) {
        EXPECT_EQ(block(r - split[0], c), full(r, c))
            << "rows [" << split[0] << ", " << split[1] << ") at (" << r << ", " << c << ")";
      }
    }
  }
  EXPECT_THROW(a.matmul_rows_into(b, 5, 4, block), std::invalid_argument);
  EXPECT_THROW(a.matmul_rows_into(b, 0, 38, block), std::invalid_argument);
  EXPECT_THROW(a.matmul_rows_into(b, 0, 37, const_cast<Matrix&>(a)),
               std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  const Matrix a = Matrix::randn(3, 5, rng);
  const Matrix att = a.transpose().transpose();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
  }
}

TEST(Matrix, AddRowVectorBroadcasts) {
  Matrix m(2, 2, 1.0);
  const Matrix row = Matrix::from_rows({{10.0, 20.0}});
  m.add_row_vector(row);
  EXPECT_DOUBLE_EQ(m(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 21.0);
  EXPECT_THROW(m.add_row_vector(Matrix(1, 3)), std::invalid_argument);
}

TEST(Matrix, ColSum) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix s = m.col_sum();
  EXPECT_DOUBLE_EQ(s(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 6.0);
}

TEST(Matrix, HconcatAndSlice) {
  const Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{3}});
  const Matrix ab = a.hconcat(b);
  EXPECT_EQ(ab.cols(), 3u);
  EXPECT_DOUBLE_EQ(ab(0, 2), 3.0);
  const Matrix back = ab.slice_cols(0, 2);
  EXPECT_DOUBLE_EQ(back(0, 1), 2.0);
  EXPECT_THROW(ab.slice_cols(2, 1), std::invalid_argument);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {1}}), std::invalid_argument);
}

// ---------------------------------------------------------------- softmax

TEST(Softmax, RowsSumToOne) {
  const Matrix logits = Matrix::from_rows({{1.0, 2.0, 3.0}, {-5.0, 0.0, 5.0}});
  const Matrix s = softmax_rows(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) sum += s(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Matrix logits = Matrix::from_rows({{1000.0, 999.0}});
  const Matrix s = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(s(0, 0)));
  EXPECT_GT(s(0, 0), s(0, 1));
}

TEST(Softmax, BackwardMatchesFiniteDifference) {
  Rng rng(2);
  Matrix logits = Matrix::randn(2, 4, rng);
  const Matrix dupstream = Matrix::randn(2, 4, rng);
  const Matrix s = softmax_rows(logits);
  const Matrix dlogits = softmax_backward(s, dupstream);

  const double eps = 1e-6;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      Matrix plus = logits, minus = logits;
      plus(r, c) += eps;
      minus(r, c) -= eps;
      const Matrix sp = softmax_rows(plus), sm = softmax_rows(minus);
      double fd = 0.0;
      for (std::size_t j = 0; j < 4; ++j) {
        fd += dupstream(r, j) * (sp(r, j) - sm(r, j)) / (2.0 * eps);
      }
      EXPECT_NEAR(dlogits(r, c), fd, 1e-6);
    }
  }
}

// ---------------------------------------------------------------- Dense

TEST(Dense, ForwardComputesAffine) {
  Rng rng(3);
  Dense d(2, 1, rng);
  d.weights()(0, 0) = 2.0;
  d.weights()(1, 0) = 3.0;
  const Matrix x = Matrix::from_rows({{1.0, 1.0}});
  EXPECT_DOUBLE_EQ(d.forward(x)(0, 0), 5.0);  // bias starts at 0
}

TEST(Dense, BackwardBeforeForwardThrows) {
  Rng rng(4);
  Dense d(2, 2, rng);
  EXPECT_THROW(d.backward(Matrix(1, 2)), std::logic_error);
}

TEST(Dense, GradientMatchesFiniteDifference) {
  // Scalar loss L = sum(Y); checks dW, db and dX.
  Rng rng(5);
  Dense d(3, 2, rng);
  const Matrix x = Matrix::randn(4, 3, rng);

  d.zero_grad();
  Matrix y = d.forward(x);
  const Matrix dy(4, 2, 1.0);  // dL/dY = 1
  const Matrix dx = d.backward(dy);

  auto params = d.parameters();
  const double eps = 1e-6;
  // dW check (first weight entry).
  {
    Matrix& w = *params[0].value;
    const Matrix& dw = *params[0].grad;
    const double orig = w(0, 0);
    w(0, 0) = orig + eps;
    const double lp = d.forward(x).data()[0] + d.forward(x).data()[1];  // recompute fully below
    (void)lp;
    w(0, 0) = orig;
    // Full-loss finite difference:
    auto loss_at = [&](double v) {
      w(0, 0) = v;
      const Matrix out = d.forward(x);
      double acc = 0.0;
      for (double e : out.data()) acc += e;
      return acc;
    };
    const double fd = (loss_at(orig + eps) - loss_at(orig - eps)) / (2.0 * eps);
    w(0, 0) = orig;
    EXPECT_NEAR(dw(0, 0), fd, 1e-5);
  }
  // dX check.
  {
    auto loss_at = [&](Matrix xm) {
      const Matrix out = d.forward(xm);
      double acc = 0.0;
      for (double e : out.data()) acc += e;
      return acc;
    };
    Matrix xp = x, xm = x;
    xp(1, 2) += eps;
    xm(1, 2) -= eps;
    const double fd = (loss_at(xp) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx(1, 2), fd, 1e-5);
  }
}

// ---------------------------------------------------------------- Embedding

TEST(Embedding, LooksUpRows) {
  Rng rng(6);
  Embedding e(5, 3, rng);
  const Matrix out = e.forward({2, 2, 4});
  EXPECT_EQ(out.rows(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(out(0, c), e.table()(2, c));
    EXPECT_DOUBLE_EQ(out(1, c), e.table()(2, c));
    EXPECT_DOUBLE_EQ(out(2, c), e.table()(4, c));
  }
}

TEST(Embedding, OutOfVocabThrows) {
  Rng rng(7);
  Embedding e(5, 3, rng);
  EXPECT_THROW(e.forward({5}), std::out_of_range);
}

TEST(Embedding, BackwardAccumulatesDuplicateIds) {
  Rng rng(8);
  Embedding e(4, 2, rng);
  e.zero_grad();
  e.forward({1, 1});
  const Matrix dy = Matrix::from_rows({{1.0, 0.0}, {2.0, 0.0}});
  e.backward(dy);
  const Matrix* grad = e.parameters()[0].grad;
  EXPECT_DOUBLE_EQ((*grad)(1, 0), 3.0);  // both rows hit id 1
  EXPECT_DOUBLE_EQ((*grad)(0, 0), 0.0);
}

// ---------------------------------------------------------------- activations

class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradTest, MatchesFiniteDifference) {
  Rng rng(9);
  ActivationLayer act(GetParam());
  const Matrix x = Matrix::randn(3, 3, rng);
  act.forward(x);
  const Matrix dy(3, 3, 1.0);
  const Matrix dx = act.backward(dy);

  const double eps = 1e-6;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      Matrix xp = x, xm = x;
      xp(r, c) += eps;
      xm(r, c) -= eps;
      ActivationLayer a2(GetParam());
      const double fd =
          (a2.forward(xp)(r, c) - a2.forward(xm)(r, c)) / (2.0 * eps);
      EXPECT_NEAR(dx(r, c), fd, 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradTest,
                         ::testing::Values(Activation::kRelu, Activation::kSigmoid,
                                           Activation::kTanh, Activation::kIdentity));

TEST(ActivationLayer, BackwardFromCachedOutputEqualsRecomputedDerivative) {
  // backward reads the derivative off the cached output; recomputing the
  // activation from the input must give the same bits.
  Rng rng(10);
  const Matrix x = Matrix::randn(6, 7, rng, 9.0);
  const Matrix dy = Matrix::randn(6, 7, rng);
  for (const Activation kind : {Activation::kRelu, Activation::kSigmoid, Activation::kTanh,
                                Activation::kIdentity}) {
    ActivationLayer act(kind);
    act.forward(x);
    const Matrix dx = act.backward(dy);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double v = x.data()[i];
      double g = 1.0;
      if (kind == Activation::kRelu) g = v > 0.0 ? 1.0 : 0.0;
      if (kind == Activation::kSigmoid) g = sigmoid(v) * (1.0 - sigmoid(v));
      if (kind == Activation::kTanh) {
        g = 1.0 - elementary::tanh(v) * elementary::tanh(v);
      }
      EXPECT_EQ(dx.data()[i], dy.data()[i] * g) << "kind " << static_cast<int>(kind) << " i " << i;
    }
  }
}

// ---------------------------------------------------------------- MLP

TEST(Mlp, ShapesAndParameterCount) {
  Rng rng(10);
  Mlp mlp(MlpConfig{.layer_dims = {4, 8, 2}}, rng);
  EXPECT_EQ(mlp.in_dim(), 4u);
  EXPECT_EQ(mlp.out_dim(), 2u);
  EXPECT_EQ(mlp.parameters().size(), 4u);  // 2 layers x (W, b)
  const Matrix x = Matrix::randn(5, 4, rng);
  EXPECT_EQ(mlp.forward(x).cols(), 2u);
}

TEST(Mlp, NeedsAtLeastTwoDims) {
  Rng rng(11);
  EXPECT_THROW(Mlp(MlpConfig{.layer_dims = {4}}, rng), std::invalid_argument);
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  Rng rng(12);
  Mlp mlp(MlpConfig{.layer_dims = {3, 5, 1},
                    .hidden_activation = Activation::kTanh,
                    .output_activation = Activation::kSigmoid},
          rng, "fd");
  const Matrix x = Matrix::randn(2, 3, rng);

  auto loss_of = [&]() {
    const Matrix out = mlp.forward(x);
    double acc = 0.0;
    for (double e : out.data()) acc += e * e;
    return 0.5 * acc;
  };

  mlp.zero_grad();
  const Matrix out = mlp.forward(x);
  Matrix dy = out;  // dL/dY = Y for L = 0.5 sum Y^2
  mlp.backward(dy);

  auto params = mlp.parameters();
  const double eps = 1e-6;
  for (auto& p : params) {
    // Spot check 2 entries per tensor.
    for (std::size_t k = 0; k < std::min<std::size_t>(2, p.value->data().size()); ++k) {
      const double orig = p.value->data()[k];
      p.value->data()[k] = orig + eps;
      const double lp = loss_of();
      p.value->data()[k] = orig - eps;
      const double lm = loss_of();
      p.value->data()[k] = orig;
      EXPECT_NEAR(p.grad->data()[k], (lp - lm) / (2.0 * eps), 1e-5) << p.name;
    }
  }
}

// ---------------------------------------------------------------- optimizer

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 from w = 0.
  Matrix w(1, 1, 0.0), g(1, 1, 0.0);
  std::vector<Parameter> params = {{"w", &w, &g}};
  Adam opt(AdamConfig{.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    g(0, 0) = 2.0 * (w(0, 0) - 3.0);
    opt.step(params);
  }
  EXPECT_NEAR(w(0, 0), 3.0, 0.01);
}

TEST(Adam, WeightDecayShrinksWeights) {
  Matrix w(1, 1, 5.0), g(1, 1, 0.0);
  std::vector<Parameter> params = {{"w", &w, &g}};
  Adam opt(AdamConfig{.lr = 0.01, .weight_decay = 0.1});
  for (int i = 0; i < 100; ++i) opt.step(params);
  EXPECT_LT(w(0, 0), 5.0);
}

TEST(Adam, GradClipBoundsUpdateScale) {
  // With an enormous gradient and clip = 1, the first Adam step is bounded by
  // ~lr regardless of gradient magnitude.
  Matrix w(1, 1, 0.0), g(1, 1, 1e9);
  std::vector<Parameter> params = {{"w", &w, &g}};
  Adam opt(AdamConfig{.lr = 0.1, .grad_clip = 1.0});
  opt.step(params);
  EXPECT_LT(std::abs(w(0, 0)), 0.2);
}

TEST(Adam, StepCounterAdvances) {
  Matrix w(1, 1, 0.0), g(1, 1, 1.0);
  std::vector<Parameter> params = {{"w", &w, &g}};
  Adam opt(AdamConfig{});
  opt.step(params);
  opt.step(params);
  EXPECT_EQ(opt.steps_taken(), 2u);
}

TEST(Softmax, RowIntoMatchesBatchSoftmaxBitExactly) {
  // softmax_row_into is the per-row kernel of the vectorized rollout
  // collector; it must replicate softmax_rows' op sequence exactly so row
  // sampling is bit-identical to the batched path.
  Rng rng(77);
  Matrix logits = Matrix::randn(5, 4, rng);
  for (double& x : logits.data()) x *= 30.0;  // large logits stress the max-stabilization
  const Matrix batch = softmax_rows(logits);
  std::vector<double> row;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    softmax_row_into(logits, r, row);
    ASSERT_EQ(row.size(), logits.cols());
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      EXPECT_EQ(row[c], batch(r, c)) << "(" << r << "," << c << ")";
    }
  }
}

TEST(Softmax, RowIntoRejectsOutOfRangeRow) {
  const Matrix logits(2, 3, 0.0);
  std::vector<double> row;
  EXPECT_THROW(softmax_row_into(logits, 2, row), std::out_of_range);
}

// ---------------------------------------------------------------- elementary

/// |got - ref| in units of the last place of a double of ref's magnitude
/// (2^-1074 below the normal range).
double ulp_error(double got, long double ref) {
  const int exponent = std::max(std::ilogb(ref), -1022);
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) /
                             std::ldexp(1.0L, exponent - 52));
}

std::vector<double> uniform_inputs(double lo, double hi, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

/// n magnitudes log-spaced over [2^lo, 2^hi], each with both signs.
std::vector<double> log_spaced_inputs(double lo, double hi, std::size_t n) {
  std::vector<double> xs;
  xs.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    const double x = std::exp2(lo + (hi - lo) * t);
    xs.push_back(x);
    xs.push_back(-x);
  }
  return xs;
}

std::vector<double> concat(std::vector<double> a, const std::vector<double>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

struct Worst {
  double ulp = 0.0;
  double at = 0.0;
};

/// The largest ulp_error of f against ref over xs; a NaN error (f(x) is NaN
/// where ref is not) counts as the largest.
template <class F, class Ref>
Worst worst_ulp(const std::vector<double>& xs, F f, Ref ref) {
  Worst w;
  for (const double x : xs) {
    const double e = ulp_error(f(x), ref(static_cast<long double>(x)));
    if (!(e <= w.ulp)) w = {e, x};
  }
  return w;
}

/// The tanh sweep: uniform on [-20, 20] and magnitudes down to 2^-60.
std::vector<double> tanh_sweep() {
  return concat(uniform_inputs(-20.0, 20.0, 1'000'000, 101),
                log_spaced_inputs(-60.0, 5.0, 250'000));
}

TEST(Elementary, TanhWithinTwoUlpOfLongDouble) {
  const std::vector<double> xs = tanh_sweep();
  const Worst w = worst_ulp(
      xs, [](double x) { return elementary::tanh(x); }, [](long double x) { return tanhl(x); });
  EXPECT_LE(w.ulp, 2.0) << "at x = " << w.at;
}

TEST(Elementary, ExpWithinTwoUlpOfLongDouble) {
  // Out to the overflow and underflow thresholds (the lowest results are
  // subnormal), plus magnitudes down to 2^-60.
  const std::vector<double> xs =
      concat(concat(uniform_inputs(-20.0, 20.0, 400'000, 102),
                    uniform_inputs(-745.13, 709.78, 600'000, 103)),
             log_spaced_inputs(-60.0, 9.0, 100'000));
  const Worst w = worst_ulp(
      xs, [](double x) { return elementary::exp(x); }, [](long double x) { return expl(x); });
  EXPECT_LE(w.ulp, 2.0) << "at x = " << w.at;
}

TEST(Elementary, LogWithinTwoUlpOfLongDouble) {
  // Over (0, 1e300]: log-uniform from the smallest subnormal, uniform on
  // (0, 2], and 1 +- 2^-k, where log x is small.
  std::vector<double> xs;
  for (const double e : uniform_inputs(-1074.0, std::log2(1e300), 800'000, 104)) {
    xs.push_back(std::exp2(e));
  }
  for (const double x : uniform_inputs(0.0, 2.0, 200'000, 105)) xs.push_back(x);
  for (const double x : log_spaced_inputs(-60.0, -1.0, 50'000)) xs.push_back(1.0 + x);
  xs.push_back(std::numeric_limits<double>::denorm_min());
  xs.push_back(1e300);
  const Worst w = worst_ulp(
      xs, [](double x) { return elementary::log(x); }, [](long double x) { return logl(x); });
  EXPECT_LE(w.ulp, 2.0) << "at x = " << w.at;
}

TEST(Elementary, SpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(elementary::tanh(0.0)), std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(elementary::tanh(-0.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(elementary::tanh(kInf), 1.0);
  EXPECT_EQ(elementary::tanh(-kInf), -1.0);
  EXPECT_EQ(elementary::tanh(1e300), 1.0);
  for (const double nan : {kNan, -kNan}) {
    EXPECT_TRUE(std::isnan(elementary::tanh(nan)));
    EXPECT_TRUE(std::isnan(elementary::exp(nan)));
    EXPECT_TRUE(std::isnan(elementary::log(nan)));
  }

  EXPECT_TRUE(std::isfinite(elementary::exp(709.78)));
  for (const double x : {709.79, 710.0, 1e3, 1e308, kInf}) EXPECT_EQ(elementary::exp(x), kInf) << x;
  EXPECT_GT(elementary::exp(-745.13), 0.0);
  for (const double x : {-745.14, -746.0, -1e3, -1e308, -kInf}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(elementary::exp(x)), std::bit_cast<std::uint64_t>(0.0))
        << x;
  }
  EXPECT_EQ(elementary::exp(0.0), 1.0);

  EXPECT_EQ(elementary::log(0.0), -kInf);
  EXPECT_EQ(elementary::log(-0.0), -kInf);
  EXPECT_EQ(elementary::log(kInf), kInf);
  EXPECT_EQ(elementary::log(1.0), 0.0);
  for (const double x : {-1.0, -1e-310, -kInf}) EXPECT_TRUE(std::isnan(elementary::log(x))) << x;
}

TEST(Elementary, TanhIsOddBitForBitAndBounded) {
  for (const double x : tanh_sweep()) {
    const double t = elementary::tanh(x);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(elementary::tanh(-x)), std::bit_cast<std::uint64_t>(-t))
        << "x = " << x;
    ASSERT_LE(std::fabs(t), 1.0) << "x = " << x;
  }
}

TEST(Elementary, TanhInplaceEqualsScalarTanhBitForBit) {
  // Every span length through 19 (two 8-wide vectors, then the step down
  // through 4- and 2-wide vectors to a scalar tail) at even and odd element
  // offsets; elements outside the span stay untouched.
  const std::vector<double> inputs = uniform_inputs(-6.0, 6.0, 24, 106);
  for (std::size_t offset : {0u, 1u, 3u}) {
    for (std::size_t len = 0; len <= 19; ++len) {
      std::vector<double> buf = inputs;
      elementary::tanh_inplace(std::span<double>(buf.data() + offset, len));
      for (std::size_t i = 0; i < buf.size(); ++i) {
        const bool inside = i >= offset && i < offset + len;
        const double want = inside ? elementary::tanh(inputs[i]) : inputs[i];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(buf[i]), std::bit_cast<std::uint64_t>(want))
            << "offset " << offset << " len " << len << " i " << i;
      }
    }
  }
}

TEST(Elementary, PowiIsExactAtOneAndTracksPowl) {
  // Adam's bias corrections: beta^t for every step count t.  Relative error
  // against powl, with DBL_MIN as the floor once beta^t leaves the normal
  // range (it underflows towards 0 there, and 1 - beta^t is 1 either way).
  for (const double beta : {0.9, 0.999}) {
    EXPECT_EQ(elementary::powi(beta, 0), 1.0);
    EXPECT_EQ(elementary::powi(beta, 1), beta);
    double worst = 0.0;
    std::uint64_t worst_t = 0;
    for (std::uint64_t t = 1; t <= 1'000'000; ++t) {
      const long double ref = powl(static_cast<long double>(beta), static_cast<long double>(t));
      const long double floor =
          std::max(ref, static_cast<long double>(std::numeric_limits<double>::min()));
      const double rel = static_cast<double>(
          std::fabs(static_cast<long double>(elementary::powi(beta, t)) - ref) / floor);
      if (rel > worst) {
        worst = rel;
        worst_t = t;
      }
    }
    EXPECT_LE(worst, 1e-9) << "beta " << beta << " t " << worst_t;
  }
}

// ---------------------------------------------------------------- lanes
//
// Every width's entry point, called directly, against the W = 2 baseline
// bit for bit; tanh_inplace and matmul_rows_into run only the widest one
// this CPU supports, so these suites are what pin the others.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Inputs where tanh's lane code changes path: the sweep above, signed
/// zeros, subnormals, infinities, NaNs (payloads included), the clamp near
/// 19.07 and 20, and the points (m + 1/2) ln2 / 2 where k steps.
std::vector<double> tanh_lane_inputs() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> xs = tanh_sweep();
  for (const double x : {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::signaling_NaN(),
                         std::bit_cast<double>(0x7ff8000000000400ULL),
                         std::bit_cast<double>(0xfff0000000000001ULL), kTiny,
                         std::numeric_limits<double>::min(), std::numeric_limits<double>::max()}) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  for (double x = kTiny; x < 0x1p-1022; x *= 3.0) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  std::vector<double> centres = {19.0, 19.06, 19.07, 19.08, 20.0};
  for (int m = 0; m < 60; ++m) centres.push_back((m + 0.5) * 0x1.62e42fefa39efp-2);
  for (const double c : centres) {
    double up = c;
    double down = c;
    for (int step = 0; step < 2000; ++step) {
      for (const double x : {up, down}) {
        xs.push_back(x);
        xs.push_back(-x);
      }
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, -kInf);
    }
  }
  return xs;
}

/// tanh_span_w<W> over the inputs matches tanh_span_w<2> bit for bit: in
/// one call, in chunks of every length through 3W + 1 (so every lane
/// position and every step-down tail runs), and on short spans at every
/// offset, which must leave the elements around them untouched.
template <std::size_t W>
void expect_tanh_width_matches_baseline() {
  const std::vector<double> xs = tanh_lane_inputs();
  ASSERT_GE(xs.size(), 1'000'000u);
  std::vector<double> want = xs;
  lanes::tanh_span_w<2>(want.data(), want.size());

  auto compare = [&](const std::vector<double>& got, const char* how) {
    std::size_t mismatches = 0;
    std::size_t first = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (bits(got[i]) == bits(want[i])) continue;
      if (mismatches++ == 0) first = i;
    }
    EXPECT_EQ(mismatches, 0u) << "width " << W << ", " << how << ": first at x = " << xs[first]
                              << " (bits " << std::hex << bits(xs[first]) << ")";
  };
  std::vector<double> got = xs;
  lanes::tanh_span_w<W>(got.data(), got.size());
  compare(got, "one span");

  got = xs;
  for (std::size_t i = 0, chunk = 0; i < got.size(); ++chunk) {
    const std::size_t len = std::min(got.size() - i, chunk % (3 * W + 2));
    lanes::tanh_span_w<W>(got.data() + i, len);
    i += len;
  }
  compare(got, "chunks");

  const std::size_t span_max = 3 * W + 1;
  for (std::size_t offset = 0; offset < W; ++offset) {
    for (std::size_t len = 0; len <= span_max; ++len) {
      std::vector<double> buf(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(W + span_max + 1));
      lanes::tanh_span_w<W>(buf.data() + offset, len);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        const bool inside = i >= offset && i < offset + len;
        ASSERT_EQ(bits(buf[i]), bits(inside ? want[i] : xs[i]))
            << "width " << W << ", offset " << offset << " len " << len << " i " << i;
      }
    }
  }
}

TEST(NnLanes, TanhAtWidth2IsScalarTanhBitForBit) {
  const std::vector<double> xs = tanh_lane_inputs();
  std::vector<double> got = xs;
  lanes::tanh_span_w<2>(got.data(), got.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (bits(got[i]) != bits(elementary::tanh(xs[i]))) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  expect_tanh_width_matches_baseline<2>();
}

TEST(NnLanes, TanhAtWidth4MatchesWidth2BitForBit) {
  if (lanes::host_width() < 4) GTEST_SKIP() << "this CPU has no AVX2";
  expect_tanh_width_matches_baseline<4>();
}

TEST(NnLanes, TanhAtWidth8MatchesWidth2BitForBit) {
  if (lanes::host_width() < 8) GTEST_SKIP() << "this CPU has no AVX-512F";
  expect_tanh_width_matches_baseline<8>();
}

/// matmul_rows_w<W> matches matmul_rows_w<2> bit for bit over the shapes of
/// Matrix.MatmulMatchesReferenceAcrossRandomizedShapes and the actor's
/// 33x64, 64x32 and 32x3 layers: the full product, and row ranges that
/// start and end off a 4-row block, each written into NaN so that an
/// element the kernel skips shows up.
template <std::size_t W>
void expect_matmul_width_matches_baseline() {
  struct Shape {
    std::size_t rows, inner, cols;
  };
  std::vector<Shape> shapes;
  for (const std::size_t rows : {0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 64, 129}) {
    for (const std::size_t inner : {0, 1, 3, 33, 64}) {
      for (const std::size_t cols : {1, 3, 4, 5, 7, 8, 9, 33, 64, 127, 128, 129, 200}) {
        shapes.push_back({rows, inner, cols});
      }
    }
  }
  for (const std::size_t rows : {1, 47, 48, 49, 192}) {
    for (const Shape layer : {Shape{0, 33, 64}, Shape{0, 64, 32}, Shape{0, 32, 3}}) {
      shapes.push_back({rows, layer.inner, layer.cols});
    }
  }
  Rng rng(20261019);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const Shape& s : shapes) {
    Matrix a(s.rows, s.inner);
    Matrix b(s.inner, s.cols);
    for (double& x : a.data()) {
      x = rng.uniform(0.0, 1.0) < 0.15 ? 0.0 : rng.normal(0.0, 1.0);
    }
    for (double& x : b.data()) x = rng.normal(0.0, 1.0);
    std::vector<double> want(s.rows * s.cols, kNan);
    lanes::matmul_rows_w<2>(a.data().data(), b.data().data(), want.data(), 0, s.rows, s.inner,
                            s.cols);
    std::vector<std::size_t> begins = {0};
    std::vector<std::size_t> ends = {s.rows};
    if (s.rows >= 5) {
      begins.insert(begins.end(), {1, 3});
      ends.insert(ends.end(), {s.rows - 1, s.rows - 2});
    }
    for (const std::size_t begin : begins) {
      for (const std::size_t end : ends) {
        std::vector<double> got((end - begin) * s.cols, kNan);
        lanes::matmul_rows_w<W>(a.data().data(), b.data().data(), got.data(), begin, end,
                                s.inner, s.cols);
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[begin * s.cols + i]))
              << "width " << W << ", " << s.rows << "x" << s.inner << " * " << s.inner << "x"
              << s.cols << ", rows [" << begin << ", " << end << "), element " << i;
        }
      }
    }
  }
}

TEST(NnLanes, MatmulAtWidth4MatchesWidth2BitForBit) {
  if (lanes::host_width() < 4) GTEST_SKIP() << "this CPU has no AVX2";
  expect_matmul_width_matches_baseline<4>();
}

TEST(NnLanes, MatmulAtWidth8MatchesWidth2BitForBit) {
  if (lanes::host_width() < 8) GTEST_SKIP() << "this CPU has no AVX-512F";
  expect_matmul_width_matches_baseline<8>();
}

TEST(Dense, ConstParameterViewsAliasTheWeights) {
  Rng rng(5);
  Dense layer(2, 3, rng, "d");
  const Dense& view = layer;
  const auto params = view.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "d.W");
  EXPECT_EQ(params[1].name, "d.b");
  // Same storage as the mutable views — a const export serializes the live
  // weights, not a copy.
  auto mutable_params = layer.parameters();
  EXPECT_EQ(params[0].value, mutable_params[0].value);
  EXPECT_EQ(params[1].value, mutable_params[1].value);
}

}  // namespace
}  // namespace ecthub::nn
