#include "features/pair_feature_kernel.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

#include "common/string_util.h"
#include "features/tile_pool.h"
#include "ml/encoded_dataset.h"
#include "reference/reference.h"

namespace perfxplain {
namespace {

/// Exhaustive kernel-vs-reference check: a log with one numeric and one
/// nominal feature whose records sweep edge-case payloads (missing, +-0,
/// similar-but-unequal, NaN, infinities, denormal-scale values, nominal
/// strings containing commas), compared over every ordered pair and every
/// pair feature.
class PairFeatureKernelTest : public ::testing::Test {
 protected:
  PairFeatureKernelTest() : schema_(MakeSchema()), log_(MakeLog()) {}

  static Schema MakeSchema() {
    Schema schema;
    PX_CHECK(schema.Add("num", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("name", ValueKind::kNominal).ok());
    return schema;
  }

  ExecutionLog MakeLog() {
    ExecutionLog log(schema_);
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    const double numerics[] = {0.0,  -0.0, 1.0,  1.05, 2.0,
                               -3.0, nan,  inf,  -inf, 1e-300};
    const char* nominals[] = {"a", "b", "a,b", "b,c", "(a,b)"};
    std::size_t next = 0;
    auto add = [&](Value num, Value name) {
      PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%03zu", next++),
                                       {std::move(num), std::move(name)}))
                   .ok());
    };
    add(Value::Missing(), Value::Missing());
    for (double v : numerics) {
      add(Value::Number(v), Value::Missing());
    }
    for (const char* s : nominals) {
      add(Value::Missing(), Value::Nominal(s));
    }
    for (double v : {0.0, 1.0, 1.05}) {
      for (const char* s : {"a", "a,b"}) {
        add(Value::Number(v), Value::Nominal(s));
      }
    }
    return log;
  }

  Schema schema_;
  ExecutionLog log_;
};

TEST_F(PairFeatureKernelTest, MatchesValuePathOnEveryPairAndFeature) {
  const PairSchema pair_schema(schema_);
  const ColumnarLog columns(log_);
  const PairFeatureOptions options;
  const std::size_t n = log_.size();
  std::vector<PairRef> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) pairs.push_back({i, j, true});
    }
  }
  const EncodedDataset data(columns, pair_schema, pairs, options.sim_fraction);
  for (std::size_t r = 0; r < pairs.size(); ++r) {
    const std::size_t i = pairs[r].first;
    const std::size_t j = pairs[r].second;
    const std::vector<Value> expected = reference::PairVector(
        schema_, log_.at(i), log_.at(j), options.sim_fraction);
    for (std::size_t f = 0; f < pair_schema.size(); ++f) {
      const Value actual = data.DecodeValue(f, r);
      if (expected[f].is_numeric() && std::isnan(expected[f].number())) {
        ASSERT_TRUE(actual.is_numeric());
        EXPECT_TRUE(std::isnan(actual.number()));
        continue;
      }
      EXPECT_EQ(actual, expected[f])
          << "pair (" << i << "," << j << ") feature "
          << pair_schema.NameOf(f);
    }
  }
}

TEST(PairFeatureKernelEdgeTest, WithinFractionMirrorsValueSemantics) {
  const double nan = std::nan("");
  // Two exact zeros are similar; zero vs. tiny is not (scale is the max
  // magnitude); NaN is similar to nothing, not even itself.
  EXPECT_TRUE(kernel::WithinFraction(0.0, -0.0, 0.1));
  EXPECT_FALSE(kernel::WithinFraction(0.0, 1e-300, 0.1));
  EXPECT_TRUE(kernel::WithinFraction(100.0, 105.0, 0.1));
  EXPECT_FALSE(kernel::WithinFraction(100.0, 120.0, 0.1));
  EXPECT_FALSE(kernel::WithinFraction(nan, nan, 0.1));
  EXPECT_FALSE(kernel::WithinFraction(nan, 1.0, 0.1));
  for (double x : {0.0, -0.0, 1.0, 1.05, 2.0, nan, 1e-300}) {
    for (double y : {0.0, -0.0, 1.0, 1.05, 2.0, nan, 1e-300}) {
      EXPECT_EQ(kernel::WithinFraction(x, y, 0.1),
                Value::WithinFraction(Value::Number(x), Value::Number(y),
                                      0.1))
          << x << " vs " << y;
    }
  }
}

TEST(PairFeatureKernelEdgeTest, BaseNumericNaNIsMissing) {
  const double nan = std::nan("");
  EXPECT_FALSE(kernel::BaseNumeric(true, nan, true, nan).present);
  EXPECT_TRUE(kernel::BaseNumeric(true, 0.0, true, -0.0).present);
  EXPECT_FALSE(kernel::BaseNumeric(false, 1.0, true, 1.0).present);
}

TEST_F(PairFeatureKernelTest, PackedCodesRoundTripAndCountDisagreements) {
  const ColumnarLog columns(log_);
  const kernel::RawColumnTable table(columns);
  const double sim = 0.1;
  const std::size_t k = table.size();
  const std::size_t n = log_.size();
  const kernel::PackedIsSameCodes poi =
      kernel::PackIsSameCodes(table, 0, 1, sim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const kernel::PackedIsSameCodes packed =
          kernel::PackIsSameCodes(table, i, j, sim);
      std::size_t scalar_disagree = 0;
      for (std::size_t f = 0; f < k; ++f) {
        const std::int8_t code = table.IsSame(f, i, j, sim);
        EXPECT_EQ(packed.CodeAt(f), code)
            << "pair (" << i << "," << j << ") feature " << f;
        if (code != poi.CodeAt(f)) ++scalar_disagree;
      }
      EXPECT_EQ(kernel::CountPackedDisagreements(packed, poi),
                scalar_disagree)
          << "pair (" << i << "," << j << ")";
    }
  }
}

TEST_F(PairFeatureKernelTest, ScanPairAgainstPoiMatchesScalarScan) {
  const ColumnarLog columns(log_);
  const kernel::RawColumnTable table(columns);
  const double sim = 0.1;
  const std::size_t k = table.size();
  const std::size_t n = log_.size();
  const kernel::PackedIsSameCodes poi =
      kernel::PackIsSameCodes(table, 2, 3, sim);
  std::vector<std::uint64_t> masks(poi.word_count());
  std::vector<std::size_t> extracted;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // Scalar reference: disagreeing features in ascending order.
      std::vector<std::size_t> expected_features;
      for (std::size_t f = 0; f < k; ++f) {
        if (table.IsSame(f, i, j, sim) != poi.CodeAt(f)) {
          expected_features.push_back(f);
        }
      }
      for (std::size_t max_disagree : {std::size_t{0}, std::size_t{1}, k}) {
        const std::size_t result = kernel::ScanPairAgainstPoi(
            table, i, j, sim, poi, max_disagree, masks.data());
        if (expected_features.size() > max_disagree) {
          EXPECT_EQ(result, kernel::kPackedRejected)
              << "pair (" << i << "," << j << ") max " << max_disagree;
          continue;
        }
        ASSERT_EQ(result, expected_features.size())
            << "pair (" << i << "," << j << ") max " << max_disagree;
        extracted.clear();
        kernel::AppendMaskedFeatures(masks.data(), poi.word_count(),
                                     extracted);
        EXPECT_EQ(extracted, expected_features)
            << "pair (" << i << "," << j << ")";
      }
    }
  }
}

TEST(PackedIsSameCodesTest, MultiWordLayoutCrossesWordBoundaries) {
  // 70 features spans three words; exercise fields on both sides of each
  // boundary plus the partial final word.
  const std::size_t k = 70;
  kernel::PackedIsSameCodes a(k);
  kernel::PackedIsSameCodes b(k);
  EXPECT_EQ(a.word_count(), 3u);
  EXPECT_EQ(a.features(), k);
  // All fields start as 0b00 = F.
  for (std::size_t f = 0; f < k; ++f) {
    EXPECT_EQ(a.CodeAt(f), kernel::kFalseCode);
  }
  const std::size_t flipped[] = {0, 31, 32, 63, 64, 69};
  for (std::size_t f : flipped) {
    a.SetCode(f, kernel::kTrueCode);
    b.SetCode(f, kernel::kMissingCode);
  }
  // Missing and T differ; everything else agrees (F vs F).
  EXPECT_EQ(kernel::CountPackedDisagreements(a, b),
            sizeof(flipped) / sizeof(flipped[0]));
  for (std::size_t f : flipped) {
    EXPECT_EQ(a.CodeAt(f), kernel::kTrueCode) << f;
    EXPECT_EQ(b.CodeAt(f), kernel::kMissingCode) << f;
  }
  // Re-setting a field overwrites rather than ORs.
  a.SetCode(31, kernel::kMissingCode);
  EXPECT_EQ(a.CodeAt(31), kernel::kMissingCode);
  a.SetCode(31, kernel::kFalseCode);
  EXPECT_EQ(a.CodeAt(31), kernel::kFalseCode);
  // Extraction reports ascending feature indexes across all three words
  // (a(31) is now F vs b(31) Missing, still a disagreement).
  std::vector<std::uint64_t> masks(a.word_count());
  for (std::size_t w = 0; w < a.word_count(); ++w) {
    masks[w] = kernel::PackedDisagreeMask(a.word(w), b.word(w));
  }
  std::vector<std::size_t> features;
  kernel::AppendMaskedFeatures(masks.data(), masks.size(), features);
  EXPECT_EQ(features, std::vector<std::size_t>({0, 31, 32, 63, 64, 69}));
}

TEST(PairFeatureKernelEdgeTest, CompareNaNIsGt) {
  // The Value path orders by `x < y ? LT : GT` after the similarity test;
  // NaN comparisons are false, so NaN lands on GT. The kernel must agree.
  const double nan = std::nan("");
  EXPECT_EQ(kernel::CompareNumeric(true, nan, true, 1.0, 0.1),
            kernel::kGtCode);
  EXPECT_EQ(kernel::CompareNumeric(true, 1.0, true, nan, 0.1),
            kernel::kGtCode);
}

/// The mirror of TilePool::Fill copies pair (j, i)'s words into pair
/// (i, j), so isSame must be bitwise symmetric. A log of 34 numeric and 2
/// nominal columns (two packed words) whose cells cycle through the
/// awkward doubles — +-0, +-inf, NaN, subnormals, +-DBL_MAX, a 1e-6
/// cluster at 1e9, values on a 0.1-fraction boundary — with missing
/// numeric cells and missing (kNoCode) nominal cells sprinkled in.
class PairFeatureSymmetryTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNumeric = 34;
  static constexpr std::size_t kNominal = 2;

  PairFeatureSymmetryTest() : log_(MakeLog()), columns_(log_) {}

  static ExecutionLog MakeLog() {
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const double values[] = {0.0,    -0.0,         inf,
                             -inf,   std::nan(""), denorm,
                             -denorm, 1e-310,      DBL_MIN,
                             DBL_MAX, -DBL_MAX,    1e9,
                             1e9 * (1 + 1e-6),     1e9 * (1 - 1e-6),
                             1e9 + 1e3,            1e9 + 2e3,
                             9.0,    10.0,         11.0,
                             90.0,   100.0,        110.0,
                             -100.0, 1.0};
    const std::size_t v = sizeof(values) / sizeof(values[0]);
    Schema schema;
    for (std::size_t c = 0; c < kNumeric; ++c) {
      PX_CHECK(schema.Add(StrFormat("n%02zu", c), ValueKind::kNumeric).ok());
    }
    for (std::size_t c = 0; c < kNominal; ++c) {
      PX_CHECK(schema.Add(StrFormat("s%zu", c), ValueKind::kNominal).ok());
    }
    ExecutionLog log(schema);
    const char* names[] = {"a", "b", nullptr};
    for (std::size_t r = 0; r < 2 * v; ++r) {
      std::vector<Value> cells;
      for (std::size_t c = 0; c < kNumeric; ++c) {
        cells.push_back((r + 3 * c) % 13 == 0
                            ? Value::Missing()
                            : Value::Number(values[(r * (c + 1) + c) % v]));
      }
      for (std::size_t c = 0; c < kNominal; ++c) {
        const char* name = names[(r + c * (r / 3)) % 3];
        cells.push_back(name == nullptr ? Value::Missing()
                                        : Value::Nominal(name));
      }
      PX_CHECK(
          log.Add(ExecutionRecord(StrFormat("r%03zu", r), std::move(cells)))
              .ok());
    }
    return log;
  }

  ExecutionLog log_;
  ColumnarLog columns_;
};

TEST_F(PairFeatureSymmetryTest, IsSameAndPackedWordsAreBitwiseSymmetric) {
  const kernel::RawColumnTable table(columns_);
  const std::size_t n = columns_.rows();
  const std::size_t words =
      kernel::PackedIsSameCodes(table.size()).word_count();
  ASSERT_EQ(words, 2u);
  std::vector<std::uint64_t> ij(words);
  std::vector<std::uint64_t> ji(words);
  for (const double sim : {0.0, 0.1, 1.0}) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t f = 0; f < table.size(); ++f) {
          ASSERT_EQ(table.IsSame(f, i, j, sim), table.IsSame(f, j, i, sim))
              << "sim " << sim << " pair (" << i << "," << j << ") feature "
              << f;
        }
        kernel::PackIsSameCodesRaw(table, i, j, sim, ij.data());
        kernel::PackIsSameCodesRaw(table, j, i, sim, ji.data());
        ASSERT_EQ(ij, ji) << "sim " << sim << " pair (" << i << "," << j
                          << ")";
      }
    }
  }
}

TEST_F(PairFeatureSymmetryTest, PlaneFillMatchesPerPairPackingOnEdgeValues) {
  // The TilePool's column-at-a-time row kernel against the per-pair
  // primitive, on a filled plane and on on-demand tiles of a small pool.
  const kernel::RawColumnTable table(columns_);
  const std::size_t n = columns_.rows();
  for (const double sim : {0.0, 0.1, 1.0}) {
    TilePool plane(&columns_, sim, n);
    plane.Fill(1);
    TilePool pool(&columns_, sim, /*frames=*/3);
    const std::size_t words = plane.word_count();
    std::vector<std::uint64_t> expected(words);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t* tile = plane.Fetch(i);
      const std::uint64_t* fetched = i % 17 == 5 ? pool.Fetch(i) : nullptr;
      for (std::size_t j = 0; j < n; ++j) {
        kernel::PackIsSameCodesRaw(table, i, j, sim, expected.data());
        for (std::size_t w = 0; w < words; ++w) {
          ASSERT_EQ(tile[j * words + w], expected[w])
              << "sim " << sim << " pair (" << i << "," << j << ") word "
              << w;
          if (fetched != nullptr) {
            ASSERT_EQ(fetched[j * words + w], expected[w])
                << "on-demand, sim " << sim << " pair (" << i << "," << j
                << ") word " << w;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace perfxplain
