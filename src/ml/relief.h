#ifndef PERFXPLAIN_ML_RELIEF_H_
#define PERFXPLAIN_ML_RELIEF_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "log/columnar.h"

namespace perfxplain {

/// Parameters for RReliefF (Relief adapted to regression, Robnik-Sikonja &
/// Kononenko 1997) — the feature-importance estimator behind the
/// RuleOfThumb baseline (§5.1). The paper chose Relief because it handles
/// numeric and nominal attributes as well as missing values.
struct ReliefOptions {
  std::size_t iterations = 250;  ///< m: random probe instances
  std::size_t neighbors = 10;    ///< k: nearest neighbors per probe
  /// Worker threads for the striped probe loop (0 = process default, see
  /// SetDefaultEnumerationThreads). Thread count never changes any weight.
  int threads = 0;
};

/// Estimates the importance of every feature for predicting the numeric
/// target feature `target_index` (duration). Returns one weight per schema
/// feature; the target itself gets weight 0. Higher is more important;
/// weights lie in [-1, 1].
///
/// diff(f, a, b) is |a-b| / (max-min) for numeric features (0 when the
/// feature is constant), 0/1 equality for nominal features, 0.5 when exactly
/// one side is missing and 0 when both are missing. Numeric NaN values are
/// "present": a NaN never widens a range and differs from everything by 1.
///
/// Runs over dictionary-encoded columns (numeric diffs on raw doubles,
/// nominal diffs on interner codes), never touching a Value, with the
/// O(m·n·k) probe loop striped across `options.threads` workers. Bitwise
/// identical weights at every thread count for the same Rng seed: the
/// shuffle (the only Rng consumption) runs up front, per-probe neighbor
/// searches are independent, and the floating-point accumulation replays
/// serially in probe order.
std::vector<double> RRelieff(const ColumnarLog& columns,
                             std::size_t target_index,
                             const ReliefOptions& options, Rng& rng);

/// Indices of all features ordered by descending RReliefF weight, excluding
/// `target_index` itself. Convenience for RuleOfThumb.
std::vector<std::size_t> RankFeaturesByImportance(const ColumnarLog& columns,
                                                  std::size_t target_index,
                                                  const ReliefOptions& options,
                                                  Rng& rng);

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_RELIEF_H_
