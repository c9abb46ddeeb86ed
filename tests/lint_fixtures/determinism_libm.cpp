// Lint fixture (never compiled): libm transcendental calls.
// Expected under src/nn/ or src/rl/: determinism/libm x10 (std::-qualified,
// ::-qualified and unqualified calls, one of them after `return`); none
// elsewhere.
#include <cmath>

using std::log;

double trunk(double x) { return std::tanh(x); }

double softmax_term(double logit, double mx) {
  const double e = std::exp(logit - mx) + ::expm1(logit);
  return e + std::pow(0.9, 3.0);
}

double entropy_term(double p) {
  return log(p) * -p + std::log1p(p);
}

double angles(double a) { return std::sin(a) * cos(a) + ::tanh(a) + exp(a); }
