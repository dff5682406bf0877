#include "ml/relief.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/cancel.h"
#include "common/row_stripe.h"
#include "features/pair_feature_kernel.h"

namespace perfxplain {

namespace {

/// Per-feature normalization ranges for numeric diffs.
struct FeatureRanges {
  std::vector<double> min;
  std::vector<double> max;
};

double NumericDiff(double a, double b, double range) {
  if (range <= 0.0 || !std::isfinite(range)) return 0.0;
  return std::min(1.0, std::abs(a - b) / range);
}

/// diff(f, a, b) over the columns: numeric diffs on the raw double arrays,
/// nominal diffs on interner codes, column pointers resolved once. Range
/// accumulation visits the rows in order with std::min/std::max, so a NaN
/// cell never widens a range.
class ColumnarReliefView {
 public:
  explicit ColumnarReliefView(const ColumnarLog& columns)
      : columns_(&columns), table_(columns) {
    const std::size_t k = columns.schema().size();
    ranges_.min.assign(k, std::numeric_limits<double>::infinity());
    ranges_.max.assign(k, -std::numeric_limits<double>::infinity());
    for (std::size_t f = 0; f < k; ++f) {
      if (!table_.is_numeric(f)) continue;
      const NumericColumn& c = table_.numeric(f);
      for (std::size_t row = 0; row < columns.rows(); ++row) {
        if (!c.present.Test(row)) continue;
        ranges_.min[f] = std::min(ranges_.min[f], c.values[row]);
        ranges_.max[f] = std::max(ranges_.max[f], c.values[row]);
      }
    }
  }

  std::size_t rows() const { return columns_->rows(); }
  std::size_t features() const { return columns_->schema().size(); }
  double range(std::size_t f) const { return ranges_.max[f] - ranges_.min[f]; }

  double Diff(std::size_t f, std::size_t i, std::size_t j) const {
    if (table_.is_numeric(f)) {
      const NumericColumn& c = table_.numeric(f);
      const bool ap = c.present.Test(i);
      const bool bp = c.present.Test(j);
      if (!ap && !bp) return 0.0;
      if (!ap || !bp) return 0.5;
      return NumericDiff(c.values[i], c.values[j], range(f));
    }
    const NominalColumn& c = table_.nominal(f);
    const bool ap = c.codes[i] != StringInterner::kNoCode;
    const bool bp = c.codes[j] != StringInterner::kNoCode;
    if (!ap && !bp) return 0.0;
    if (!ap || !bp) return 0.5;
    return c.codes[i] == c.codes[j] ? 0.0 : 1.0;
  }

 private:
  const ColumnarLog* columns_;
  kernel::RawColumnTable table_;
  FeatureRanges ranges_;
};

/// Final RReliefF weight formula from the accumulators.
std::vector<double> WeightsFromAccumulators(
    std::size_t k, std::size_t target_index, double n_dc,
    const std::vector<double>& n_da, const std::vector<double>& n_dcda,
    double total_weight) {
  std::vector<double> weights(k, 0.0);
  if (n_dc <= 0.0 || total_weight - n_dc <= 0.0) {
    // Degenerate target (all durations identical) or all-different; weights
    // stay 0 / fall back to the defined branch only.
    for (std::size_t f = 0; f < k; ++f) {
      if (f == target_index) continue;
      if (n_dc > 0.0) weights[f] = n_dcda[f] / n_dc;
    }
    return weights;
  }
  for (std::size_t f = 0; f < k; ++f) {
    if (f == target_index) continue;
    weights[f] =
        n_dcda[f] / n_dc - (n_da[f] - n_dcda[f]) / (total_weight - n_dc);
  }
  return weights;
}

std::vector<std::size_t> RankByWeight(const std::vector<double>& weights,
                                      std::size_t target_index) {
  std::vector<std::size_t> order;
  order.reserve(weights.size());
  for (std::size_t f = 0; f < weights.size(); ++f) {
    if (f != target_index) order.push_back(f);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weights[a] > weights[b];
                   });
  return order;
}

}  // namespace

// The O(m·n·k) nearest-neighbor searches — the dominant cost — run on
// worker threads, one contiguous stripe of probes each, the way pair
// enumeration stripes rows. The weights are bitwise identical for every
// thread count because
//  (1) every Rng draw happens in the up-front shuffle, before any probe,
//      so probes consume no randomness and are order-independent;
//  (2) probe p's distance array (and hence its partial_sort result)
//      depends only on (order, view), never on other probes; and
//  (3) the floating-point accumulation — where summation order matters —
//      replays serially over the recorded neighbor lists in probe order.
std::vector<double> RRelieff(const ColumnarLog& columns,
                             std::size_t target_index,
                             const ReliefOptions& options, Rng& rng) {
  const ColumnarReliefView view(columns);
  const std::size_t k = view.features();
  std::vector<double> weights(k, 0.0);
  const std::size_t n = view.rows();
  if (n < 2) return weights;
  PX_CHECK_LT(target_index, k);

  const std::size_t m =
      std::min(options.iterations, n);  // probe each record at most once/pass
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);  // the only Rng consumption, replayed before striping

  const std::size_t probes = options.iterations;
  const std::size_t kk = std::min(options.neighbors, n - 1);

  // Phase 1 (parallel): k nearest neighbors of each probe, recorded in
  // partial_sort order. Probe p visits row order[p % m], so only
  // min(probes, m) distinct probes exist; iterations beyond m reuse their
  // neighbor lists instead of re-running identical searches.
  const std::size_t unique_probes = std::min(probes, m);
  std::vector<std::size_t> neighbors(unique_probes * kk);
  ForEachRowStripe(
      unique_probes, ResolveThreads(options.threads),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<std::pair<double, std::size_t>> distances;
        distances.reserve(n - 1);
        for (std::size_t probe = begin; probe < end; ++probe) {
          ThrowIfInterrupted();
          const std::size_t i = order[probe];  // probe < m
          distances.clear();
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            double dist = 0.0;
            for (std::size_t f = 0; f < k; ++f) {
              if (f == target_index) continue;
              dist += view.Diff(f, i, j);
            }
            distances.emplace_back(dist, j);
          }
          std::partial_sort(distances.begin(),
                            distances.begin() +
                                static_cast<std::ptrdiff_t>(kk),
                            distances.end());
          for (std::size_t t = 0; t < kk; ++t) {
            neighbors[probe * kk + t] = distances[t].second;
          }
        }
      });

  // Phase 2 (serial): accumulate in probe order, so the floating-point
  // operation sequence never depends on the stripes.
  double n_dc = 0.0;
  std::vector<double> n_da(k, 0.0);
  std::vector<double> n_dcda(k, 0.0);
  double total_weight = 0.0;
  const double w = 1.0 / static_cast<double>(kk);
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t i = order[probe % m];
    for (std::size_t t = 0; t < kk; ++t) {
      const std::size_t j = neighbors[(probe % m) * kk + t];
      const double d_target = view.Diff(target_index, i, j);
      n_dc += d_target * w;
      for (std::size_t f = 0; f < k; ++f) {
        if (f == target_index) continue;
        const double d = view.Diff(f, i, j);
        n_da[f] += d * w;
        n_dcda[f] += d_target * d * w;
      }
      total_weight += w;
    }
  }

  return WeightsFromAccumulators(k, target_index, n_dc, n_da, n_dcda,
                                 total_weight);
}

std::vector<std::size_t> RankFeaturesByImportance(const ColumnarLog& columns,
                                                  std::size_t target_index,
                                                  const ReliefOptions& options,
                                                  Rng& rng) {
  return RankByWeight(RRelieff(columns, target_index, options, rng),
                      target_index);
}

}  // namespace perfxplain
