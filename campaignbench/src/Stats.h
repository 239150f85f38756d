//===- Stats.h - Summary statistics for the campaign benchmark ------------===//

#ifndef CAMPAIGNBENCH_STATS_H
#define CAMPAIGNBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace cb {

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Geometric mean of the positive entries (0 when there are none).
inline double geomean(const std::vector<double> &V) {
  double LogSum = 0.0;
  size_t N = 0;
  for (double X : V)
    if (X > 0.0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0.0;
}

/// Harrell-Davis estimate of quantile \p Q: a Beta((n+1)Q, (n+1)(1-Q))
/// weighted average of all order statistics. Campaign latencies cluster by
/// subject, and a plain order statistic jumps between clusters from one
/// seed to the next; the weighted estimate moves smoothly.
inline double hdQuantile(std::vector<double> V, double Q) {
  size_t N = V.size();
  if (N == 0)
    return 0.0;
  if (N == 1)
    return V[0];
  std::sort(V.begin(), V.end());
  double A = static_cast<double>(N + 1) * Q;
  double B = static_cast<double>(N + 1) * (1.0 - Q);
  double LogBeta = std::lgamma(A) + std::lgamma(B) - std::lgamma(A + B);
  // Integrate the Beta density over each [i/n, (i+1)/n] by the midpoint
  // rule on a fine grid, then normalise.
  constexpr int Sub = 32;
  std::vector<double> W(N, 0.0);
  double Total = 0.0;
  for (size_t I = 0; I < N; ++I) {
    for (int K = 0; K < Sub; ++K) {
      double X = (static_cast<double>(I) + (K + 0.5) / Sub) /
                 static_cast<double>(N);
      W[I] += std::exp((A - 1.0) * std::log(X) + (B - 1.0) * std::log1p(-X) -
                       LogBeta);
    }
    Total += W[I];
  }
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I)
    Sum += W[I] / Total * V[I];
  return Sum;
}

/// The highest quantile, at most \p Cap, with at least ten samples of \p N
/// beyond it (0 when N is too small for any).
inline double tailQuantile(size_t N, double Cap) {
  if (N <= 10)
    return 0.0;
  return std::min(Cap, 1.0 - 10.0 / static_cast<double>(N));
}

} // namespace cb

#endif // CAMPAIGNBENCH_STATS_H
