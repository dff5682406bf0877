#include "ml/encoded_dataset.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "ml/split.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

/// Built in place (no moves): the dataset points into `schema` and
/// `columns`, so their addresses must stay stable.
class EncodedFixture {
 public:
  EncodedFixture(std::uint64_t seed, std::size_t n)
      : log(MakeLog(seed, n)),
        schema(log.schema()),
        columns(log),
        pairs(MakePairs(log, seed)),
        dataset(columns, schema, pairs, 0.10),
        examples(MakeExamples(log, pairs)) {}

  EncodedFixture(const EncodedFixture&) = delete;
  EncodedFixture& operator=(const EncodedFixture&) = delete;

  ExecutionLog log;
  PairSchema schema;
  ColumnarLog columns;
  std::vector<PairRef> pairs;
  EncodedDataset dataset;
  /// The reference's pair-feature vector of every pair.
  std::vector<std::vector<Value>> examples;

 private:
  static std::vector<std::vector<Value>> MakeExamples(
      const ExecutionLog& log, const std::vector<PairRef>& pairs) {
    std::vector<std::vector<Value>> examples;
    for (const PairRef& pair : pairs) {
      examples.push_back(reference::PairVector(log.schema(),
                                               log.at(pair.first),
                                               log.at(pair.second)));
    }
    return examples;
  }

  static ExecutionLog MakeLog(std::uint64_t seed, std::size_t n) {
    Schema schema;
    PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
    PX_CHECK(schema.Add("y", ValueKind::kNumeric).ok());
    ExecutionLog log(schema);
    Rng rng(seed);
    const char* colors[] = {"red", "blue", "g,reen"};
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Value> values;
      values.push_back(rng.Bernoulli(0.2)
                           ? Value::Missing()
                           : Value::Number(rng.UniformInt(0, 3)));
      values.push_back(rng.Bernoulli(0.2)
                           ? Value::Missing()
                           : Value::Nominal(colors[rng.UniformInt(0, 2)]));
      double y = rng.Uniform(0.0, 4.0);
      if (rng.Bernoulli(0.1)) y = std::nan("");
      values.push_back(Value::Number(y));
      PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%03zu", i),
                                       std::move(values)))
                   .ok());
    }
    return log;
  }

  static std::vector<PairRef> MakePairs(const ExecutionLog& log,
                                        std::uint64_t seed) {
    std::vector<PairRef> pairs;
    Rng rng(seed + 1);
    for (std::size_t i = 0; i < log.size(); ++i) {
      for (std::size_t j = 0; j < log.size(); ++j) {
        if (i == j) continue;
        pairs.push_back({i, j, rng.Bernoulli(0.5)});
      }
    }
    return pairs;
  }
};

TEST(EncodedDatasetTest, DecodesEveryCellToTheValuePath) {
  // The reference's names line up with the engine's layout.
  const EncodedFixture names(3, 2);
  const std::vector<std::string> features =
      reference::PairFeatureNames(names.log.schema());
  ASSERT_EQ(features.size(), names.schema.size());
  for (std::size_t f = 0; f < features.size(); ++f) {
    EXPECT_EQ(features[f], names.schema.NameOf(f));
  }
  const EncodedFixture fx(3, 10);
  for (std::size_t r = 0; r < fx.dataset.rows(); ++r) {
    for (std::size_t f = 0; f < fx.schema.size(); ++f) {
      const Value& expected = fx.examples[r][f];
      const Value actual = fx.dataset.DecodeValue(f, r);
      if (expected.is_numeric() && std::isnan(expected.number())) {
        ASSERT_TRUE(actual.is_numeric());
        EXPECT_TRUE(std::isnan(actual.number()));
      } else {
        EXPECT_EQ(actual, expected)
            << "row " << r << " " << fx.schema.NameOf(f);
      }
    }
  }
}

TEST(EncodedDatasetTest, AtomTestMatchesAtomEval) {
  const EncodedFixture fx(5, 9);
  std::vector<Atom> atoms;
  // A pool covering every feature kind, operators, and constants both in
  // and outside the dictionary.
  for (const char* text :
       {"x_isSame = T", "x_isSame != T", "color_isSame = F",
        "color_diff = (red,blue)", "color_diff != (red,blue)",
        "color_diff = (zz,yy)", "x_compare = SIM", "x_compare != GT",
        "y_compare = LT", "x = 2", "x != 2", "x <= 1", "x >= 3",
        "color = red", "color != red", "color = zz", "color != zz",
        "y >= 2"}) {
    Predicate predicate = testing::MustPredicate(text);
    ASSERT_TRUE(predicate.Bind(fx.schema).ok()) << text;
    atoms.push_back(predicate.atoms()[0]);
  }
  for (const Atom& atom : atoms) {
    const RowBitmap rows = EncodedAtomTest(fx.dataset, atom).MatchingRows(
        fx.dataset);
    ASSERT_EQ(rows.size(), (fx.dataset.rows() + 63) / 64);
    for (std::size_t r = 0; r < fx.dataset.rows(); ++r) {
      EXPECT_EQ(((rows[r >> 6] >> (r & 63)) & 1) != 0,
                atom.Matches(fx.examples[r][atom.pair_index()]))
          << atom.ToString() << " row " << r;
    }
  }
}

/// The encoded search's candidate against the reference's over the same
/// working rows.
void ExpectSameCandidate(const std::optional<SplitCandidate>& actual,
                         const EncodedFixture& fx,
                         const std::vector<std::uint32_t>& rows,
                         std::size_t f, std::size_t min_support,
                         const std::string& context) {
  std::vector<Value> values;
  std::vector<bool> positive;
  for (std::uint32_t r : rows) {
    values.push_back(fx.examples[r][f]);
    positive.push_back(fx.dataset.labels()[r] != 0);
  }
  const auto expected =
      reference::BestPredicate(fx.schema.NameOf(f), values, positive,
                               fx.examples[0][f], min_support);
  ASSERT_EQ(actual.has_value(), expected.has_value()) << context;
  if (!expected.has_value()) return;
  EXPECT_EQ(actual->atom, expected->atom)
      << context << ": " << actual->atom.ToString() << " vs "
      << expected->atom.ToString();
  EXPECT_DOUBLE_EQ(actual->gain, expected->gain) << context;
}

/// `rows` of `dataset` as a RowBitmap.
RowBitmap RowsBitmap(const EncodedDataset& dataset,
                     const std::vector<std::uint32_t>& rows) {
  RowBitmap bitmap((dataset.rows() + 63) / 64, 0);
  for (std::uint32_t r : rows) bitmap[r >> 6] |= std::uint64_t{1} << (r & 63);
  return bitmap;
}

/// The observed rows of `dataset` as a RowBitmap.
RowBitmap LabelsBitmap(const EncodedDataset& dataset) {
  std::vector<std::uint32_t> observed;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (dataset.labels()[r] != 0) {
      observed.push_back(static_cast<std::uint32_t>(r));
    }
  }
  return RowsBitmap(dataset, observed);
}

TEST(EncodedSplitTest, BestPredicateMatchesValuePathEveryFeature) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    const EncodedFixture fx(seed, 9);
    std::vector<std::uint32_t> rows(fx.dataset.rows());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      rows[r] = static_cast<std::uint32_t>(r);
    }
    EncodedSplitIndex index(fx.dataset);
    SplitOptions options;
    options.min_support = 2;
    for (std::size_t f = 0; f < fx.schema.size(); ++f) {
      const auto actual = BestPredicateForFeatureEncoded(
          index,
          EncodedWorkingSet(RowsBitmap(fx.dataset, rows),
                            LabelsBitmap(fx.dataset)),
          f, options);
      ExpectSameCandidate(
          actual, fx, rows, f, options.min_support,
          StrFormat("seed %d feature %s", static_cast<int>(seed),
                    fx.schema.NameOf(f).c_str()));
    }
  }
}

TEST(EncodedSplitTest, RespectsWorkingSubsets) {
  const EncodedFixture fx(13, 10);
  // Odd-indexed subset: the encoded search must score only those rows.
  std::vector<std::uint32_t> rows;
  rows.push_back(0);
  for (std::size_t r = 1; r < fx.dataset.rows(); r += 2) {
    rows.push_back(static_cast<std::uint32_t>(r));
  }
  EncodedSplitIndex index(fx.dataset);
  SplitOptions options;
  options.min_support = 2;
  for (std::size_t f = 0; f < fx.schema.size(); ++f) {
    const auto actual = BestPredicateForFeatureEncoded(
        index,
        EncodedWorkingSet(RowsBitmap(fx.dataset, rows),
                          LabelsBitmap(fx.dataset)),
        f, options);
    ExpectSameCandidate(actual, fx, rows, f, options.min_support,
                        "subset feature " + fx.schema.NameOf(f));
  }
}

}  // namespace
}  // namespace perfxplain
