#ifndef PERFXPLAIN_ML_SPLIT_H_
#define PERFXPLAIN_ML_SPLIT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "features/pair_schema.h"
#include "ml/encoded_dataset.h"
#include "ml/info_gain.h"
#include "pxql/ast.h"

namespace perfxplain {

/// A candidate atomic predicate for one feature, with its information gain
/// over the current example set (line 5 of Algorithm 1).
struct SplitCandidate {
  Atom atom;
  double gain = 0.0;
  /// Examples of the searched set that satisfy `atom`, and the positive
  /// ones among them: the numerators of the generality and precision of
  /// lines 6-7 of Algorithm 1, carried out of the search so the clause
  /// loop never recounts them.
  std::size_t in_total = 0;
  std::size_t in_positive = 0;
};

/// Options controlling the per-feature predicate search.
struct SplitOptions {
  /// A candidate predicate must be satisfied by at least this many
  /// examples. Guards against atoms that isolate (nearly) only the pair of
  /// interest, which look perfectly precise on the training sample but do
  /// not generalize.
  std::size_t min_support = 1;
};

/// One (value, label) observation entering the numeric threshold scan.
struct ThresholdPoint {
  double value;
  bool positive;
};

/// A clause step's working set over an encoded dataset's rows, with the
/// positive rows (labels, already flipped when optimizing relevance) and
/// the set's counts of both, kept so that no search recounts them.
class EncodedWorkingSet {
 public:
  /// All of `rows`; `positive` marks the positive rows (of any set).
  EncodedWorkingSet(RowBitmap rows, RowBitmap positive);

  const RowBitmap& rows() const { return rows_; }
  const RowBitmap& positive() const { return positive_; }
  std::size_t total() const { return total_; }
  std::size_t positives() const { return positives_; }

  /// Keeps only the rows also in `keep` (Filter, line 15 of Algorithm 1).
  void Intersect(const RowBitmap& keep);

 private:
  void Count();

  RowBitmap rows_;
  RowBitmap positive_;
  std::size_t total_ = 0;
  std::size_t positives_ = 0;
};

/// Per-dataset state of the encoded split search. The training matrix is
/// fixed while a clause grows and only the working set shrinks, so what a
/// feature's search needs besides the working set is built once, the first
/// time the feature is searched, and reused by every later step:
///  - a code feature keeps its `f = poi` atom and the bitmap of rows that
///    atom matches (EncodedAtomTest::MatchingRows). A diff's atom matches
///    every packed code that renders to the poi's "(a,b,c)" string, which
///    is several codes when a nominal value contains a comma;
///  - numeric features share the working set grouped by the pair's first
///    log row (a CSR), regrouped once when the working set changes. A
///    numeric base cell is its first row's value, so walking the
///    ColumnarLog's value order of the raw column through the CSR visits
///    the working set's present cells in ascending order, without a sort.
///    The walk and the regrouping visit every log row, so a numeric search
///    costs O(log rows + working set): it beats sorting the working set
///    while the log has about as many rows as the training sample (true of
///    every benchmark workload: 1.2k-3.6k log rows against ~2k pairs);
///  - one points buffer is reused by every numeric search, so a request
///    holds no per-feature sorted copies.
///
/// Dataset row 0 is the pair of interest. The dataset (and its
/// ColumnarLog) must outlive the index. Not thread-safe: one clause loop
/// owns it.
class EncodedSplitIndex {
 public:
  explicit EncodedSplitIndex(const EncodedDataset& data);

  const EncodedDataset& data() const { return *data_; }

  /// The only candidate of a code (nominal, isSame, compare, diff) feature.
  struct EqualityTest {
    bool usable = false;  ///< false when the poi's value is missing
    Atom atom;            ///< `f = poi`
    RowBitmap rows;       ///< the dataset rows `atom` matches
  };
  /// Built on the first call for `pair_index`, a code feature.
  const EqualityTest& EqualityTestAt(std::size_t pair_index);

  /// The working set's present cells of numeric feature `pair_index`.
  struct NumericCells {
    /// Ascending by value; valid until the next SortedCells call.
    const std::vector<ThresholdPoint>& points;
    std::size_t positives;  ///< positive points
    SplitCounts eq;         ///< in-set counts of `f = poi`
  };
  NumericCells SortedCells(const EncodedWorkingSet& working,
                           std::size_t pair_index);

 private:
  /// Regroups the CSR to hold exactly `working`, unless it already does.
  void GroupByFirstRow(const RowBitmap& working);

  const EncodedDataset* data_;
  std::vector<EqualityTest> equality_tests_;
  std::vector<bool> equality_built_;
  /// The rows of `grouped_` keyed by their pair's first log row: the rows
  /// of log row i are by_first_[first_offsets_[i] .. first_offsets_[i + 1]).
  RowBitmap grouped_;
  std::vector<std::uint32_t> first_offsets_;
  std::vector<std::uint32_t> by_first_;
  /// The threshold scan's points, reused by every numeric search.
  std::vector<ThresholdPoint> points_;
};

/// Finds the predicate with maximum information gain for pair feature
/// `pair_index` over the rows of `working` (maxInfoGainPredicate in
/// Algorithm 1); the pair of interest is dataset row 0.
///
/// Every candidate atom is satisfied by the pair of interest, so the final
/// explanation is applicable (Definition 3). Nominal features admit only
/// equality tests, and the only candidate constant is the pair's own
/// value. Numeric features admit equality on the pair's value plus <= / >=
/// threshold tests at midpoints between adjacent distinct observed values
/// (C4.5-style), where <= thresholds must be at or above the pair's value
/// and >= thresholds at or below it. A zero threshold is always +0.0, so
/// which of -0.0 and +0.0 an atom prints does not depend on the order of
/// equal values. Rows whose value is missing never satisfy a candidate.
/// Candidates are tried equality first, then thresholds ascending (<=
/// before >=); a later one wins only with a strictly higher gain.
///
/// A code feature costs two masked popcounts; a numeric one walks its
/// presorted cells once. Returns nullopt when the feature yields no usable
/// candidate (e.g., the pair's value is missing, or every candidate lacks
/// support).
std::optional<SplitCandidate> BestPredicateForFeatureEncoded(
    EncodedSplitIndex& index, const EncodedWorkingSet& working,
    std::size_t pair_index, const SplitOptions& options);

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_SPLIT_H_
