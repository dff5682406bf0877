#include "features/pair_schema.h"

#include <gtest/gtest.h>

#include "ml/encoded_dataset.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::TinyRecord;
using perfxplain::testing::TinySchema;

/// Pair feature `pair_index` (Table 1) of the ordered pair (a, b) as the
/// engine encodes it, checked against the reference.
Value EngineFeature(const PairSchema& schema, const ExecutionRecord& a,
                    const ExecutionRecord& b, std::size_t pair_index,
                    const PairFeatureOptions& options) {
  const ColumnarLog columns(schema.raw(), {a, b});
  const EncodedDataset data(columns, schema, {{0, 1, true}},
                            options.sim_fraction);
  const Value value = data.DecodeValue(pair_index, 0);
  EXPECT_EQ(value, reference::PairVector(schema.raw(), a, b,
                                         options.sim_fraction)[pair_index])
      << schema.NameOf(pair_index);
  return value;
}

class PairFeaturesTest : public ::testing::Test {
 protected:
  PairFeaturesTest() : schema_(TinySchema()) {}

  Value Feature(const ExecutionRecord& a, const ExecutionRecord& b,
                PairFeatureKind kind, const std::string& raw_name) {
    const std::size_t raw = schema_.raw().IndexOf(raw_name);
    PX_CHECK_NE(raw, Schema::kNotFound);
    return EngineFeature(schema_, a, b, schema_.IndexOf(kind, raw), options_);
  }

  PairSchema schema_;
  PairFeatureOptions options_;
};

TEST_F(PairFeaturesTest, LayoutIsFourBlocks) {
  EXPECT_EQ(schema_.raw_size(), 3u);
  EXPECT_EQ(schema_.size(), 12u);
  EXPECT_EQ(schema_.IndexOf(PairFeatureKind::kIsSame, 0), 0u);
  EXPECT_EQ(schema_.IndexOf(PairFeatureKind::kCompare, 0), 3u);
  EXPECT_EQ(schema_.IndexOf(PairFeatureKind::kDiff, 0), 6u);
  EXPECT_EQ(schema_.IndexOf(PairFeatureKind::kBase, 0), 9u);
  EXPECT_EQ(schema_.KindOf(7), PairFeatureKind::kDiff);
  EXPECT_EQ(schema_.RawIndexOf(7), 1u);
}

TEST_F(PairFeaturesTest, Names) {
  EXPECT_EQ(schema_.NameOf(0), "x_isSame");
  EXPECT_EQ(schema_.NameOf(3), "x_compare");
  EXPECT_EQ(schema_.NameOf(7), "color_diff");
  EXPECT_EQ(schema_.NameOf(9), "x");
  EXPECT_EQ(schema_.NameOf(10), "color");
}

TEST_F(PairFeaturesTest, ResolveRoundTrip) {
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    auto resolved = schema_.Resolve(schema_.NameOf(i));
    ASSERT_TRUE(resolved.ok()) << schema_.NameOf(i);
    EXPECT_EQ(resolved.value(), i);
  }
  EXPECT_FALSE(schema_.Resolve("does_not_exist").ok());
  EXPECT_FALSE(schema_.Resolve("does_not_exist_isSame").ok());
}

TEST_F(PairFeaturesTest, ValueKinds) {
  EXPECT_EQ(schema_.ValueKindOf(0), ValueKind::kNominal);   // isSame
  EXPECT_EQ(schema_.ValueKindOf(3), ValueKind::kNominal);   // compare
  EXPECT_EQ(schema_.ValueKindOf(7), ValueKind::kNominal);   // diff
  EXPECT_EQ(schema_.ValueKindOf(9), ValueKind::kNumeric);   // base x
  EXPECT_EQ(schema_.ValueKindOf(10), ValueKind::kNominal);  // base color
}

TEST_F(PairFeaturesTest, IsDefined) {
  // compare exists for numerics only; diff for nominals only.
  EXPECT_TRUE(schema_.IsDefined(schema_.IndexOf(PairFeatureKind::kCompare,
                                                0)));  // x numeric
  EXPECT_FALSE(schema_.IsDefined(schema_.IndexOf(PairFeatureKind::kCompare,
                                                 1)));  // color nominal
  EXPECT_FALSE(schema_.IsDefined(schema_.IndexOf(PairFeatureKind::kDiff, 0)));
  EXPECT_TRUE(schema_.IsDefined(schema_.IndexOf(PairFeatureKind::kDiff, 1)));
}

TEST_F(PairFeaturesTest, FeatureLevels) {
  const std::size_t is_same = schema_.IndexOf(PairFeatureKind::kIsSame, 0);
  const std::size_t compare = schema_.IndexOf(PairFeatureKind::kCompare, 0);
  const std::size_t diff = schema_.IndexOf(PairFeatureKind::kDiff, 1);
  const std::size_t base = schema_.IndexOf(PairFeatureKind::kBase, 0);
  EXPECT_TRUE(schema_.InLevel(is_same, FeatureLevel::kLevel1));
  EXPECT_FALSE(schema_.InLevel(compare, FeatureLevel::kLevel1));
  EXPECT_TRUE(schema_.InLevel(compare, FeatureLevel::kLevel2));
  EXPECT_TRUE(schema_.InLevel(diff, FeatureLevel::kLevel2));
  EXPECT_FALSE(schema_.InLevel(base, FeatureLevel::kLevel2));
  EXPECT_TRUE(schema_.InLevel(base, FeatureLevel::kLevel3));
}

TEST_F(PairFeaturesTest, IsSameNumericUsesSimilarityTolerance) {
  const auto a = TinyRecord("a", 100, "red", 1);
  const auto b = TinyRecord("b", 105, "red", 1);
  const auto c = TinyRecord("c", 150, "red", 1);
  EXPECT_EQ(Feature(a, b, PairFeatureKind::kIsSame, "x"),
            Value::Nominal("T"));
  EXPECT_EQ(Feature(a, c, PairFeatureKind::kIsSame, "x"),
            Value::Nominal("F"));
}

TEST_F(PairFeaturesTest, IsSameNominalIsExact) {
  const auto a = TinyRecord("a", 1, "red", 1);
  const auto b = TinyRecord("b", 1, "red", 1);
  const auto c = TinyRecord("c", 1, "blue", 1);
  EXPECT_EQ(Feature(a, b, PairFeatureKind::kIsSame, "color"),
            Value::Nominal("T"));
  EXPECT_EQ(Feature(a, c, PairFeatureKind::kIsSame, "color"),
            Value::Nominal("F"));
}

TEST_F(PairFeaturesTest, CompareSemantics) {
  const auto a = TinyRecord("a", 100, "red", 1);
  const auto b = TinyRecord("b", 200, "red", 1);
  EXPECT_EQ(Feature(a, b, PairFeatureKind::kCompare, "x"),
            Value::Nominal("LT"));
  EXPECT_EQ(Feature(b, a, PairFeatureKind::kCompare, "x"),
            Value::Nominal("GT"));
  const auto c = TinyRecord("c", 103, "red", 1);
  EXPECT_EQ(Feature(a, c, PairFeatureKind::kCompare, "x"),
            Value::Nominal("SIM"));
  // compare is undefined (missing) for nominal raw features.
  EXPECT_TRUE(
      Feature(a, b, PairFeatureKind::kCompare, "color").is_missing());
}

TEST_F(PairFeaturesTest, DiffSemantics) {
  const auto a = TinyRecord("a", 1, "red", 1);
  const auto b = TinyRecord("b", 1, "blue", 1);
  EXPECT_EQ(Feature(a, b, PairFeatureKind::kDiff, "color"),
            Value::Nominal("(red,blue)"));
  EXPECT_EQ(Feature(b, a, PairFeatureKind::kDiff, "color"),
            Value::Nominal("(blue,red)"));
  EXPECT_EQ(Feature(a, a, PairFeatureKind::kDiff, "color"),
            Value::Nominal("(red,red)"));
  // diff is undefined for numeric raw features.
  EXPECT_TRUE(Feature(a, b, PairFeatureKind::kDiff, "x").is_missing());
}

TEST_F(PairFeaturesTest, BaseRequiresExactAgreement) {
  const auto a = TinyRecord("a", 128, "red", 1);
  const auto b = TinyRecord("b", 128, "blue", 1);
  EXPECT_EQ(Feature(a, b, PairFeatureKind::kBase, "x"), Value::Number(128));
  EXPECT_TRUE(Feature(a, b, PairFeatureKind::kBase, "color").is_missing());
  const auto c = TinyRecord("c", 129, "red", 1);
  // 128 vs 129 is within 10% but not exactly equal -> base is missing.
  EXPECT_TRUE(Feature(a, c, PairFeatureKind::kBase, "x").is_missing());
  EXPECT_EQ(Feature(a, c, PairFeatureKind::kBase, "color"),
            Value::Nominal("red"));
}

TEST_F(PairFeaturesTest, MissingRawValuesPropagate) {
  ExecutionRecord a("a", {Value::Missing(), Value::Nominal("red"),
                          Value::Number(1)});
  const auto b = TinyRecord("b", 5, "red", 1);
  EXPECT_TRUE(Feature(a, b, PairFeatureKind::kIsSame, "x").is_missing());
  EXPECT_TRUE(Feature(a, b, PairFeatureKind::kCompare, "x").is_missing());
  EXPECT_TRUE(Feature(a, b, PairFeatureKind::kBase, "x").is_missing());
}

TEST_F(PairFeaturesTest, SimilarityFractionIsConfigurable) {
  options_.sim_fraction = 0.5;
  const auto a = TinyRecord("a", 100, "red", 1);
  const auto b = TinyRecord("b", 140, "red", 1);
  EXPECT_EQ(Feature(a, b, PairFeatureKind::kCompare, "x"),
            Value::Nominal("SIM"));
  options_.sim_fraction = 0.1;
  EXPECT_EQ(Feature(a, b, PairFeatureKind::kCompare, "x"),
            Value::Nominal("LT"));
}

/// Property sweep: isSame is symmetric, compare is antisymmetric
/// (LT <-> GT, SIM fixed), for a grid of value pairs.
class PairSymmetryTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(PairSymmetryTest, IsSameSymmetricCompareAntisymmetric) {
  const auto [x, y] = GetParam();
  PairSchema schema(TinySchema());
  PairFeatureOptions options;
  const auto a = TinyRecord("a", x, "red", 1);
  const auto b = TinyRecord("b", y, "red", 1);
  const std::size_t is_same = schema.IndexOf(PairFeatureKind::kIsSame, 0);
  const std::size_t compare = schema.IndexOf(PairFeatureKind::kCompare, 0);
  EXPECT_EQ(EngineFeature(schema, a, b, is_same, options),
            EngineFeature(schema, b, a, is_same, options));
  const Value ab = EngineFeature(schema, a, b, compare, options);
  const Value ba = EngineFeature(schema, b, a, compare, options);
  if (ab == Value::Nominal("SIM")) {
    EXPECT_EQ(ba, Value::Nominal("SIM"));
  } else if (ab == Value::Nominal("LT")) {
    EXPECT_EQ(ba, Value::Nominal("GT"));
  } else {
    EXPECT_EQ(ba, Value::Nominal("LT"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PairSymmetryTest,
    ::testing::Values(std::pair{1.0, 1.0}, std::pair{1.0, 1.05},
                      std::pair{1.0, 2.0}, std::pair{-5.0, 5.0},
                      std::pair{0.0, 0.0}, std::pair{100.0, 109.9},
                      std::pair{100.0, 110.1}, std::pair{-1.0, -0.5}));

}  // namespace
}  // namespace perfxplain
