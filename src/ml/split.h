#ifndef PERFXPLAIN_ML_SPLIT_H_
#define PERFXPLAIN_ML_SPLIT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "features/pair_features.h"
#include "features/pair_schema.h"
#include "ml/encoded_dataset.h"
#include "pxql/ast.h"

namespace perfxplain {

/// A candidate atomic predicate for one feature, with its information gain
/// over the current example set (line 5 of Algorithm 1).
struct SplitCandidate {
  Atom atom;
  double gain = 0.0;
};

/// Options controlling the per-feature predicate search.
struct SplitOptions {
  /// A candidate predicate must be satisfied by at least this many
  /// examples. Guards against atoms that isolate (nearly) only the pair of
  /// interest, which look perfectly precise on the training sample but do
  /// not generalize.
  std::size_t min_support = 1;
};

/// Finds the predicate with maximum information gain for pair feature
/// `pair_index` over `examples` (maxInfoGainPredicate in Algorithm 1).
///
/// Every candidate atom is satisfied by the pair of interest, so the final
/// explanation is applicable (Definition 3). Nominal features admit only
/// equality tests, and the only candidate constant is the pair's own
/// value. Numeric features admit equality on the pair's value plus <= / >=
/// threshold tests at midpoints between adjacent distinct observed values
/// (C4.5-style), where <= thresholds must be at or above the pair's value
/// and >= thresholds at or below it. Examples whose value is missing never
/// satisfy a candidate.
///
/// `poi_value` is the pair of interest's value for this feature. Returns
/// nullopt when the feature yields no usable candidate (e.g., the pair's
/// value is missing, or all example values are missing).
std::optional<SplitCandidate> BestPredicateForFeature(
    const PairSchema& schema, const std::vector<TrainingExample>& examples,
    std::size_t pair_index, const Value& poi_value,
    const SplitOptions& options);

/// Encoded fast path of BestPredicateForFeature: the same search over an
/// integer-coded training matrix, scanning codes and doubles instead of
/// Values. `rows` is the current working set (dataset row indices, in
/// order) and `labels` the per-dataset-row positive flags (already flipped
/// when optimizing relevance). `poi_row` is the dataset row of the pair
/// of interest. Produces bit-identical candidates and gains to the Value
/// path.
std::optional<SplitCandidate> BestPredicateForFeatureEncoded(
    const EncodedDataset& data, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint8_t>& labels, std::size_t pair_index,
    std::size_t poi_row, const SplitOptions& options);

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_SPLIT_H_
