// Lint fixture (never compiled): what library code may write.  Expected:
// clean even under src/nn/ — calls qualified by nn::elementary or
// elementary, member calls and declarations are not libm calls.
#include "common/elementary.hpp"
#include "nn/elementary.hpp"

namespace ecthub::nn::elementary {
double tanh(double x) noexcept;
[[nodiscard]] double exp(double x) noexcept;
}  // namespace ecthub::nn::elementary

struct Meter {
  double log(double v) const { return v; }
};

double trunk(double x) { return ecthub::nn::elementary::tanh(x); }

double ratio(double log_prob, const Meter& meter, const Meter* m) {
  const double p = nn::elementary::exp(log_prob);
  return p + meter.log(p) + m->log(p) + elementary::log(p) + elementary::powi(0.9, 3);
}

double hour_phase(double s, double c) {
  return ecthub::elementary::atan2(s, c) + ecthub::elementary::sin(s) * elementary::cos(c);
}
