#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double HighestTailPercentile(std::size_t count) {
  // Tenths of a percent, so the rank arithmetic stays in integers.
  for (std::size_t tenths : {999u, 990u, 900u, 750u, 500u}) {
    const std::size_t rank = (tenths * count + 999) / 1000;
    if (count >= rank + 10) return static_cast<double>(tenths) / 10.0;
  }
  return 0.0;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary summary;
  summary.count = samples.size();
  summary.p50 = Median(samples);
  summary.tail_pct = HighestTailPercentile(samples.size());
  if (summary.tail_pct > 0.0) {
    summary.tail = Percentile(samples, summary.tail_pct);
  }
  if (summary.tail_pct >= 90.0) summary.p90 = Percentile(samples, 90.0);
  return summary;
}

}  // namespace perfbench
