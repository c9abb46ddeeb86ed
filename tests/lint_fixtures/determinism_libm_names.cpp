// Lint fixture (never compiled): the rest of libm's transcendental names.
// Expected under src/: determinism/libm x16, one call of each of tan, atan2,
// atan, asin, acos, sinh, cosh, hypot, lgamma, tgamma, erf, erfc, cbrt,
// exp2, log2 and log10 (std::-qualified, ::-qualified and unqualified);
// none elsewhere.  Calls qualified by another namespace, member calls and
// declarations are clean.
#include <cmath>

double angle(double y, double x) { return std::atan2(y, x) + ::atan(y) + std::tan(x); }

double inverse(double v) { return asin(v) + std::acos(v); }

double hyperbolic(double v) { return std::sinh(v) * ::cosh(v); }

double norm(double dx, double dy) { return std::hypot(dx, dy); }

double special(double v) {
  return std::lgamma(v) + std::tgamma(v) + std::erf(v) + ::erfc(v) + cbrt(v);
}

double bases(double v) { return std::exp2(v) + std::log2(v) + log10(v); }

struct Table {
  double atan2(double y, double x) const { return y - x; }
};

double clean(const Table& t, double v) {
  return ecthub::elementary::atan2(v, 1.0) + elementary::sin(v) + t.atan2(v, v);
}
