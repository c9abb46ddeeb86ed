// Small statistics helpers used by generators, evaluators and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace ecthub::stats {

/// Arithmetic mean; 0 for an empty vector.
double mean(const std::vector<double>& v);

/// Population variance; 0 for fewer than 2 elements.
double variance(const std::vector<double>& v);

/// Population standard deviation.
double stddev(const std::vector<double>& v);

/// Pearson correlation coefficient; 0 if either side is constant or empty.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/// Linearly-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// percentile() of a vector already in ascending order: no copy, no sort, so
/// several quantiles of one window cost one sort (or none, for a window kept
/// sorted as it slides).
double sorted_percentile(const std::vector<double>& sorted, double p);

double min(const std::vector<double>& v);
double max(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/// Lag-k autocorrelation; 0 when undefined.
double autocorrelation(const std::vector<double>& v, std::size_t lag);

}  // namespace ecthub::stats
