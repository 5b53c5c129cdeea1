// Small order statistics for the benchmark's repeated measurements.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile q in [0, 100] of `xs` (0 when empty).
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50.0);
}

// Median of one field over a run's rounds.
template <typename Row>
double median_of(const std::vector<Row>& rows, double Row::*field) {
  std::vector<double> xs;
  for (const Row& r : rows) xs.push_back(r.*field);
  return median(xs);
}

// A many-sample timing reduced to its median and its tail: the highest of
// the standard percentiles that still has at least 10 samples beyond it,
// so the tail figure is never a single outlier. With fewer than 20
// samples no percentile above the median qualifies and the tail is the
// median itself (tail_q = 50).
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 50.0;
  size_t n = 0;
};

inline Tail summarize(const std::vector<double>& xs) {
  Tail t;
  t.n = xs.size();
  t.p50 = median(xs);
  t.tail = t.p50;
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Samples beyond q: n * (100 - q) / 100 >= 10 (with slack for the
    // inexact 100 - 99.9).
    if (static_cast<double>(xs.size()) * (100.0 - q) >= 1000.0 - 1e-6) {
      t.tail_q = q;
      t.tail = percentile(xs, q);
      break;
    }
  }
  return t;
}

}  // namespace perfbench
