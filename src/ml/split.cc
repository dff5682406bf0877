#include "ml/split.h"

#include <algorithm>
#include <cmath>

#include "ml/info_gain.h"

namespace perfxplain {

namespace {

/// Gain of an explicit membership test evaluated over all examples.
template <typename SatisfiesFn>
SplitCounts CountSplit(const std::vector<TrainingExample>& examples,
                       SatisfiesFn satisfies) {
  SplitCounts counts;
  for (const TrainingExample& example : examples) {
    if (satisfies(example)) {
      ++counts.in_total;
      if (example.observed) ++counts.in_positive;
    } else {
      ++counts.out_total;
      if (example.observed) ++counts.out_positive;
    }
  }
  return counts;
}

void Consider(const PairSchema& schema, std::size_t pair_index, CompareOp op,
              const Value& constant, double gain,
              std::optional<SplitCandidate>& best) {
  if (!best.has_value() || gain > best->gain) {
    best = SplitCandidate{Atom::Bound(schema, pair_index, op, constant), gain};
  }
}

/// One (value, label) observation entering the threshold scan.
struct ThresholdPoint {
  double value;
  bool positive;
};

/// The C4.5-style threshold scan shared by the Value and encoded searches:
/// one ascending pass produces the gains of all `f <= c` and `f >= c`
/// candidates. Midpoints between adjacent distinct values are used as
/// thresholds, plus the pair of interest's own value so `f <= poi` /
/// `f >= poi` are always candidates. Callers extract `points` and the
/// missing counts from their representation; everything downstream is this
/// single definition, so the two paths cannot drift apart.
void ScanNumericThresholds(const PairSchema& schema, std::size_t pair_index,
                           std::vector<ThresholdPoint>& points,
                           std::size_t missing_total,
                           std::size_t missing_positive, double poi,
                           const SplitOptions& options,
                           std::optional<SplitCandidate>& best) {
  using Point = ThresholdPoint;
  if (points.empty()) return;
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.value < b.value; });

  const std::size_t n_total = points.size() + missing_total;
  std::size_t n_positive = missing_positive;
  for (const Point& p : points) {
    if (p.positive) ++n_positive;
  }

  // Candidate thresholds: midpoints between adjacent distinct values, the
  // extremes, and the pair of interest's value.
  std::vector<double> thresholds;
  thresholds.reserve(points.size() + 2);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    if (points[i].value != points[i + 1].value) {
      thresholds.push_back((points[i].value + points[i + 1].value) / 2.0);
    }
  }
  thresholds.push_back(points.front().value);
  thresholds.push_back(points.back().value);
  thresholds.push_back(poi);
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

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
        Consider(schema, pair_index, CompareOp::kLe, Value::Number(c),
                 InformationGain(counts), best);
      }
    }
    // f >= c; in-set is the suffix with value >= c. Because thresholds fall
    // between distinct values or on values, the suffix is everything not in
    // the strict prefix of values < c; recompute via the complement of the
    // prefix of values <= c when c is not an observed value. To stay exact
    // we count the suffix directly from the prefix of values < c.
    if (poi >= c) {
      // Count of points with value < c: step an independent scan would cost
      // O(n) per threshold; instead note that points with value < c equals
      // prefix_total minus points exactly equal to c that were consumed.
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
      counts.in_positive = (n_positive - missing_positive) - lt_positive;
      counts.out_total = n_total - counts.in_total;
      counts.out_positive = n_positive - counts.in_positive;
      if (counts.in_total >= options.min_support) {
        Consider(schema, pair_index, CompareOp::kGe, Value::Number(c),
                 InformationGain(counts), best);
      }
    }
  }
}

/// Value-path point extraction for the shared threshold scan.
void SearchNumericThresholds(const PairSchema& schema,
                             const std::vector<TrainingExample>& examples,
                             std::size_t pair_index, double poi,
                             const SplitOptions& options,
                             std::optional<SplitCandidate>& best) {
  std::vector<ThresholdPoint> points;
  points.reserve(examples.size());
  std::size_t missing_total = 0;
  std::size_t missing_positive = 0;
  for (const TrainingExample& example : examples) {
    const Value& v = example.features[pair_index];
    if (v.is_numeric()) {
      points.push_back({v.number(), example.observed});
    } else {
      ++missing_total;
      if (example.observed) ++missing_positive;
    }
  }
  ScanNumericThresholds(schema, pair_index, points, missing_total,
                        missing_positive, poi, options, best);
}

/// Encoded point extraction: same scan, inputs from code/double columns.
void SearchNumericThresholdsEncoded(const PairSchema& schema,
                                    const EncodedDataset& data,
                                    const std::vector<std::uint32_t>& rows,
                                    const std::vector<std::uint8_t>& labels,
                                    std::size_t pair_index, double poi,
                                    const SplitOptions& options,
                                    std::optional<SplitCandidate>& best) {
  std::vector<ThresholdPoint> points;
  points.reserve(rows.size());
  std::size_t missing_total = 0;
  std::size_t missing_positive = 0;
  const std::vector<double>& values = data.NumericValues(pair_index);
  for (std::uint32_t r : rows) {
    if (data.NumericPresent(pair_index, r)) {
      points.push_back({values[r], labels[r] != 0});
    } else {
      ++missing_total;
      if (labels[r] != 0) ++missing_positive;
    }
  }
  ScanNumericThresholds(schema, pair_index, points, missing_total,
                        missing_positive, poi, options, best);
}

}  // namespace

std::optional<SplitCandidate> BestPredicateForFeatureEncoded(
    const EncodedDataset& data, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint8_t>& labels, std::size_t pair_index,
    std::size_t poi_row, const SplitOptions& options) {
  const PairSchema& schema = data.schema();
  if (rows.empty()) return std::nullopt;
  if (!schema.IsDefined(pair_index)) return std::nullopt;

  std::optional<SplitCandidate> best;

  if (!data.IsNumericFeature(pair_index)) {
    const std::vector<std::int64_t>& codes = data.Codes(pair_index);
    const std::int64_t poi_code = codes[poi_row];
    if (poi_code < 0) return std::nullopt;
    // The sole candidate is the pair of interest's own value. For
    // isSame/compare/base-nominal features codes are bijective with
    // values, so the poi's code is the whole candidate. Diff features
    // need every code that decodes to the poi's value: two packed diff
    // codes can render to the same "(a,b,c)" string when a nominal value
    // contains a comma, and the Value path counts such a candidate across
    // all of its encodings.
    const Value poi_value = data.DecodeCode(pair_index, poi_code);
    std::vector<std::int64_t> group = {poi_code};
    if (schema.KindOf(pair_index) == PairFeatureKind::kDiff) {
      std::vector<std::int64_t> distinct;
      for (std::uint32_t r : rows) {
        if (codes[r] >= 0 && codes[r] != poi_code) {
          distinct.push_back(codes[r]);
        }
      }
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (std::int64_t code : distinct) {
        if (data.DecodeCode(pair_index, code) == poi_value) {
          group.push_back(code);
        }
      }
    }
    const bool single = group.size() == 1;
    SplitCounts counts;
    for (std::uint32_t r : rows) {
      if (single ? codes[r] == poi_code
                 : std::find(group.begin(), group.end(), codes[r]) !=
                       group.end()) {
        ++counts.in_total;
        if (labels[r] != 0) ++counts.in_positive;
      } else {
        ++counts.out_total;
        if (labels[r] != 0) ++counts.out_positive;
      }
    }
    if (counts.in_total < std::max<std::size_t>(1, options.min_support)) {
      return std::nullopt;
    }
    Consider(schema, pair_index, CompareOp::kEq, poi_value,
             InformationGain(counts), best);
    return best;
  }

  // Numeric feature: equality on the pair's value plus threshold tests.
  if (!data.NumericPresent(pair_index, poi_row)) return std::nullopt;
  const std::vector<double>& values = data.NumericValues(pair_index);
  const double poi = values[poi_row];
  SplitCounts counts;
  for (std::uint32_t r : rows) {
    if (data.NumericPresent(pair_index, r) && values[r] == poi) {
      ++counts.in_total;
      if (labels[r] != 0) ++counts.in_positive;
    } else {
      ++counts.out_total;
      if (labels[r] != 0) ++counts.out_positive;
    }
  }
  if (counts.in_total >= std::max<std::size_t>(1, options.min_support)) {
    Consider(schema, pair_index, CompareOp::kEq, Value::Number(poi),
             InformationGain(counts), best);
  }
  SearchNumericThresholdsEncoded(schema, data, rows, labels, pair_index,
                                 poi, options, best);
  return best;
}

std::optional<SplitCandidate> BestPredicateForFeature(
    const PairSchema& schema, const std::vector<TrainingExample>& examples,
    std::size_t pair_index, const Value& poi_value,
    const SplitOptions& options) {
  if (examples.empty()) return std::nullopt;
  if (!schema.IsDefined(pair_index)) return std::nullopt;
  if (poi_value.is_missing()) return std::nullopt;

  std::optional<SplitCandidate> best;
  // Equality on the pair of interest's own value — the sole candidate of a
  // nominal feature.
  const SplitCounts counts =
      CountSplit(examples, [&](const TrainingExample& e) {
        return !e.features[pair_index].is_missing() &&
               e.features[pair_index] == poi_value;
      });
  if (counts.in_total >= std::max<std::size_t>(1, options.min_support)) {
    Consider(schema, pair_index, CompareOp::kEq, poi_value,
             InformationGain(counts), best);
  }
  // Numeric features add the threshold tests.
  if (schema.ValueKindOf(pair_index) != ValueKind::kNominal &&
      poi_value.is_numeric()) {
    SearchNumericThresholds(schema, examples, pair_index, poi_value.number(),
                            options, best);
  }
  return best;
}

}  // namespace perfxplain
