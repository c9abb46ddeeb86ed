#include "nn/elementary.hpp"

#include "nn/lanes.hpp"

#include <cstddef>

namespace ecthub::nn::elementary {

namespace {

using TanhSpan = void (*)(double*, std::size_t) noexcept;

// The widest instantiation this CPU runs, bound before main.
const TanhSpan tanh_kernel = lanes::widest<TanhSpan>(
    &lanes::tanh_span_w<2>, &lanes::tanh_span_w<4>, &lanes::tanh_span_w<8>);

}  // namespace

double tanh(double x) noexcept {
  lanes::Vec<2> v = {x, x};
  lanes::tanh_lanes<2>(v);
  return v[0];
}

void tanh_inplace(std::span<double> xs) noexcept { tanh_kernel(xs.data(), xs.size()); }

double powi(double base, std::uint64_t n) noexcept {
  double result = 1.0;
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) result *= base;
    base *= base;
  }
  return result;
}

}  // namespace ecthub::nn::elementary

// The per-width entry points of tanh (nn/lanes.hpp): one lane body,
// compiled for each width's instruction set.
namespace ecthub::nn::lanes {

template <>
void tanh_span_w<2>(double* p, std::size_t n) noexcept {
  tanh_span<2>(p, n);
}

template <>
[[gnu::target("avx2")]] void tanh_span_w<4>(double* p, std::size_t n) noexcept {
  tanh_span<4>(p, n);
}

template <>
[[gnu::target("avx512f")]] void tanh_span_w<8>(double* p, std::size_t n) noexcept {
  tanh_span<8>(p, n);
}

}  // namespace ecthub::nn::lanes
