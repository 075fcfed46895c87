#ifndef TIC_BENCH_E2E_STATS_H_
#define TIC_BENCH_E2E_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace tic {
namespace e2e {

/// q-quantile (q in [0,1]) by linear interpolation between order statistics;
/// 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// First quartile, median and third quartile as Python's
/// statistics.quantiles(v, n=4) gives them (the "exclusive" method); a
/// single value is its own quartiles.
inline std::array<double, 3> Quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    double x = v.empty() ? 0 : v[0];
    return {x, x, x};
  }
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1;
  std::array<double, 3> out{};
  for (int i = 1; i <= 3; ++i) {
    double pos = m * i / 4;  // 1-based rank
    long j = std::clamp<long>(static_cast<long>(std::floor(pos)), 1,
                              static_cast<long>(v.size()) - 1);
    double frac = pos - static_cast<double>(j);  // may extrapolate, as Python does
    out[i - 1] = v[j - 1] + frac * (v[j] - v[j - 1]);
  }
  return out;
}

}  // namespace e2e
}  // namespace tic

#endif  // TIC_BENCH_E2E_STATS_H_
