#include "ml/split.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "features/pair_feature_kernel.h"
#include "ml/info_gain.h"

namespace perfxplain {

namespace {

/// The running best of one numeric feature's search. Candidates arrive in
/// a fixed order and a later one wins only with a strictly higher gain.
/// The atom is bound once, when the search ends, not on every improvement.
struct NumericBest {
  bool found = false;
  CompareOp op = CompareOp::kEq;
  double constant = 0.0;
  double gain = 0.0;
  SplitCounts counts;

  void Consider(CompareOp candidate_op, double candidate_constant,
                const SplitCounts& candidate_counts) {
    const double candidate_gain = InformationGain(candidate_counts);
    if (found && !(candidate_gain > gain)) return;
    found = true;
    op = candidate_op;
    constant = candidate_constant;
    gain = candidate_gain;
    counts = candidate_counts;
  }

  std::optional<SplitCandidate> Bind(const PairSchema& schema,
                                     std::size_t pair_index) const {
    if (!found) return std::nullopt;
    return SplitCandidate{
        Atom::Bound(schema, pair_index, op, Value::Number(constant)), gain,
        counts.in_total, counts.in_positive};
  }
};

/// The C4.5-style threshold scan: one ascending pass over `points`, which
/// the caller supplies sorted by value, produces the gains of all `f <= c`
/// and `f >= c` candidates.
/// Midpoints between adjacent distinct values are used as thresholds, plus
/// the extremes and the pair of interest's own value so `f <= poi` /
/// `f >= poi` are always candidates. The searched set has `n_total`
/// examples, `n_positive` of them positive; `present_positive` of the
/// positives have a value (are in `points`).
void ScanSortedThresholds(const std::vector<ThresholdPoint>& points,
                          std::size_t n_total, std::size_t n_positive,
                          std::size_t present_positive, double poi,
                          const SplitOptions& options, NumericBest& best) {
  if (points.empty()) return;

  // Candidate thresholds, ascending and distinct. The midpoint of a < b
  // lies in [a, b] unless a + b overflows, so merging the pair of
  // interest's value into the walk over the points yields them sorted; an
  // overflowed midpoint falls back to a sort. A zero threshold is +0.0:
  // which zero the walk meets first depends on how equal values were
  // ordered, and must not reach the atom.
  std::vector<double> thresholds;
  thresholds.reserve(points.size() + 2);
  bool ascending = true;
  const auto push = [&thresholds, &ascending](double c) {
    if (c == 0.0) c = 0.0;
    if (!thresholds.empty()) {
      if (thresholds.back() == c) return;
      if (!(thresholds.back() < c)) ascending = false;
    }
    thresholds.push_back(c);
  };
  bool poi_pushed = false;
  const auto push_merged = [&](double c) {
    if (!poi_pushed && poi <= c) {
      push(poi);
      poi_pushed = true;
    }
    push(c);
  };
  push_merged(points.front().value);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    if (points[i].value != points[i + 1].value) {
      push_merged((points[i].value + points[i + 1].value) / 2.0);
    }
  }
  push_merged(points.back().value);
  if (!poi_pushed) push(poi);
  if (!ascending) {
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
  }

  // Prefix scan: for each threshold c, in-set of `f <= c` is the prefix of
  // points with value <= c; missing-valued examples are always out.
  std::size_t prefix_total = 0;
  std::size_t prefix_positive = 0;
  std::size_t cursor = 0;
  for (double c : thresholds) {
    while (cursor < points.size() && points[cursor].value <= c) {
      ++prefix_total;
      if (points[cursor].positive) ++prefix_positive;
      ++cursor;
    }
    // f <= c; applicable iff poi <= c.
    if (poi <= c) {
      SplitCounts counts;
      counts.in_total = prefix_total;
      counts.in_positive = prefix_positive;
      counts.out_total = n_total - prefix_total;
      counts.out_positive = n_positive - prefix_positive;
      if (counts.in_total >= options.min_support) {
        best.Consider(CompareOp::kLe, c, counts);
      }
    }
    // f >= c; in-set is the suffix with value >= c, i.e. everything but
    // the points with value < c. Those are the prefix of values <= c minus
    // the run equal to c at its end; distinct thresholds have disjoint
    // runs, so walking them back costs O(n) over the whole scan.
    if (poi >= c) {
      std::size_t eq_total = 0;
      std::size_t eq_positive = 0;
      for (std::size_t k = cursor; k-- > 0;) {
        if (points[k].value != c) break;
        ++eq_total;
        if (points[k].positive) ++eq_positive;
      }
      const std::size_t lt_total = prefix_total - eq_total;
      const std::size_t lt_positive = prefix_positive - eq_positive;
      SplitCounts counts;
      counts.in_total = points.size() - lt_total;
      counts.in_positive = present_positive - lt_positive;
      counts.out_total = n_total - counts.in_total;
      counts.out_positive = n_positive - counts.in_positive;
      if (counts.in_total >= options.min_support) {
        best.Consider(CompareOp::kGe, c, counts);
      }
    }
  }
}

bool TestRow(const RowBitmap& rows, std::size_t r) {
  return (rows[r >> 6] >> (r & 63)) & 1;
}

/// Calls fn(r) for every row r of `rows`, in ascending order.
template <typename Fn>
void ForEachRow(const RowBitmap& rows, Fn&& fn) {
  for (std::size_t w = 0; w < rows.size(); ++w) {
    for (std::uint64_t bits = rows[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(kernel::CountTrailingZeros(bits)));
    }
  }
}

/// Completes a candidate's in-set counts with its out-set, within a
/// working set of `total` rows of which `positives` are positive.
SplitCounts WithOutside(SplitCounts counts, std::size_t total,
                        std::size_t positives) {
  counts.out_total = total - counts.in_total;
  counts.out_positive = positives - counts.in_positive;
  return counts;
}

}  // namespace

EncodedWorkingSet::EncodedWorkingSet(RowBitmap rows, RowBitmap positive)
    : rows_(std::move(rows)), positive_(std::move(positive)) {
  PX_CHECK_EQ(rows_.size(), positive_.size());
  Count();
}

void EncodedWorkingSet::Intersect(const RowBitmap& keep) {
  PX_CHECK_EQ(keep.size(), rows_.size());
  for (std::size_t w = 0; w < rows_.size(); ++w) rows_[w] &= keep[w];
  Count();
}

void EncodedWorkingSet::Count() {
  total_ = 0;
  positives_ = 0;
  for (std::size_t w = 0; w < rows_.size(); ++w) {
    total_ += static_cast<std::size_t>(kernel::PopCount(rows_[w]));
    positives_ +=
        static_cast<std::size_t>(kernel::PopCount(rows_[w] & positive_[w]));
  }
}

EncodedSplitIndex::EncodedSplitIndex(const EncodedDataset& data)
    : data_(&data),
      equality_tests_(data.schema().size()),
      equality_built_(data.schema().size(), false) {}

const EncodedSplitIndex::EqualityTest& EncodedSplitIndex::EqualityTestAt(
    std::size_t pair_index) {
  EqualityTest& test = equality_tests_[pair_index];
  if (equality_built_[pair_index]) return test;
  equality_built_[pair_index] = true;
  const EncodedDataset& data = *data_;
  if (data.rows() == 0) return test;
  const std::int64_t poi_code = data.Codes(pair_index)[0];
  if (poi_code < 0) return test;
  test.usable = true;
  // The sole candidate is the pair of interest's own value. EncodedAtomTest
  // lowers it to every code that decodes to that value: one code, except
  // for a diff whose nominal values contain commas, where several packed
  // codes render to the same "(a,b,c)" string and the candidate counts
  // across all of them.
  test.atom = Atom::Bound(data.schema(), pair_index, CompareOp::kEq,
                          data.DecodeCode(pair_index, poi_code));
  test.rows = EncodedAtomTest(data, test.atom).MatchingRows(data);
  return test;
}

void EncodedSplitIndex::GroupByFirstRow(const RowBitmap& working) {
  if (working == grouped_) return;
  grouped_ = working;
  // Counting sort of the working set by first log row; rows stay in
  // ascending order within a log row.
  const std::vector<PairRef>& pairs = data_->pairs();
  first_offsets_.assign(data_->columns().rows() + 1, 0);
  ForEachRow(working,
             [&](std::size_t r) { ++first_offsets_[pairs[r].first + 1]; });
  for (std::size_t i = 1; i < first_offsets_.size(); ++i) {
    first_offsets_[i] += first_offsets_[i - 1];
  }
  by_first_.resize(first_offsets_.back());
  std::vector<std::uint32_t> cursor(first_offsets_.begin(),
                                    first_offsets_.end() - 1);
  ForEachRow(working, [&](std::size_t r) {
    by_first_[cursor[pairs[r].first]++] = static_cast<std::uint32_t>(r);
  });
}

EncodedSplitIndex::NumericCells EncodedSplitIndex::SortedCells(
    const EncodedWorkingSet& working, std::size_t pair_index) {
  const EncodedDataset& data = *data_;
  // Walking the raw column's value order through the CSR visits the
  // working set's present cells in ascending order.
  GroupByFirstRow(working.rows());
  const std::vector<std::uint32_t>& order =
      data.columns().ValueOrder(data.schema().RawIndexOf(pair_index));
  const double* values = data.NumericValues(pair_index).data();
  const double poi = values[0];
  const RowBitmap& positive = working.positive();
  const std::uint32_t* offsets = first_offsets_.data();
  const std::uint32_t* by_first = by_first_.data();
  // Branch-free compaction: every visited row is written at the cursor,
  // which advances only past present cells (hence the one spare slot).
  points_.resize(by_first_.size() + 1);
  std::size_t cursor = 0;
  std::size_t positives = 0;
  SplitCounts eq;
  for (std::uint32_t log_row : order) {
    const std::uint32_t end = offsets[log_row + 1];
    for (std::uint32_t k = offsets[log_row]; k < end; ++k) {
      const std::uint32_t r = by_first[k];
      const bool keep = data.NumericPresent(pair_index, r);
      const bool is_positive = keep & TestRow(positive, r);
      const bool is_eq = keep & (values[r] == poi);
      points_[cursor] = {values[r], is_positive};
      cursor += keep;
      positives += is_positive;
      eq.in_total += is_eq;
      eq.in_positive += is_eq & is_positive;
    }
  }
  points_.resize(cursor);
  return {points_, positives, eq};
}

std::optional<SplitCandidate> BestPredicateForFeatureEncoded(
    EncodedSplitIndex& index, const EncodedWorkingSet& working,
    std::size_t pair_index, const SplitOptions& options) {
  const EncodedDataset& data = index.data();
  const PairSchema& schema = data.schema();
  if (!schema.IsDefined(pair_index) || working.total() == 0) {
    return std::nullopt;
  }
  const std::size_t eq_support = std::max<std::size_t>(1, options.min_support);

  if (!data.IsNumericFeature(pair_index)) {
    const EncodedSplitIndex::EqualityTest& test =
        index.EqualityTestAt(pair_index);
    if (!test.usable) return std::nullopt;
    const RowBitmap& rows = working.rows();
    const RowBitmap& positive = working.positive();
    SplitCounts counts;
    for (std::size_t w = 0; w < rows.size(); ++w) {
      const std::uint64_t in = test.rows[w] & rows[w];
      counts.in_total += static_cast<std::size_t>(kernel::PopCount(in));
      counts.in_positive +=
          static_cast<std::size_t>(kernel::PopCount(in & positive[w]));
    }
    if (counts.in_total < eq_support) return std::nullopt;
    counts = WithOutside(counts, working.total(), working.positives());
    return SplitCandidate{test.atom, InformationGain(counts), counts.in_total,
                          counts.in_positive};
  }

  // Numeric feature: equality on the pair's value plus threshold tests.
  if (!data.NumericPresent(pair_index, 0)) return std::nullopt;
  const double poi = data.NumericValues(pair_index)[0];
  const EncodedSplitIndex::NumericCells cells =
      index.SortedCells(working, pair_index);
  NumericBest best;
  if (cells.eq.in_total >= eq_support) {
    best.Consider(CompareOp::kEq, poi,
                  WithOutside(cells.eq, working.total(), working.positives()));
  }
  ScanSortedThresholds(cells.points, working.total(), working.positives(),
                       cells.positives, poi, options, best);
  return best.Bind(schema, pair_index);
}

}  // namespace perfxplain
