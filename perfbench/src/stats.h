#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (`pct` in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double pct);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The percentile rule: the highest of p99.9, p99, p90, p75 and p50 that
/// has at least ten samples beyond it (nearest rank), or 0 when even the
/// median has fewer than ten (fewer than 20 samples).
double HighestTailPercentile(std::size_t count);

/// A latency distribution as the benchmark reports it: the median, the
/// tail percentile the percentile rule allows, and the sample count. `p90`
/// is set only when the rule allows p90 or higher (at least 100 samples).
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
  std::optional<double> p90;
};

LatencySummary Summarize(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
