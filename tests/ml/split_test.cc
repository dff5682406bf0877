#include "ml/split.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::TinySchema;

/// Builds training examples over the Tiny pair schema (12 pair features)
/// with a single pair feature set explicitly and everything else missing.
class SplitTest : public ::testing::Test {
 protected:
  SplitTest() : schema_(TinySchema()) {}

  TrainingExample Example(std::size_t pair_index, Value value,
                          bool observed) {
    TrainingExample example;
    example.observed = observed;
    example.features.assign(schema_.size(), Value::Missing());
    example.features[pair_index] = std::move(value);
    return example;
  }

  PairSchema schema_;
  SplitOptions options_;
};

TEST_F(SplitTest, NominalEqualityConstrainedToPair) {
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kIsSame, 0);
  std::vector<TrainingExample> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(Example(f, Value::Nominal("T"), /*observed=*/true));
    examples.push_back(Example(f, Value::Nominal("F"), /*observed=*/false));
  }
  auto split = BestPredicateForFeature(schema_, examples, f,
                                       Value::Nominal("T"), options_);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->atom.op(), CompareOp::kEq);
  EXPECT_EQ(split->atom.constant(), Value::Nominal("T"));
  EXPECT_NEAR(split->gain, 1.0, 1e-9);  // perfect separation

  // The constrained search cannot propose a constant the pair of interest
  // does not have, even if it separates equally well.
  auto flipped = BestPredicateForFeature(schema_, examples, f,
                                         Value::Nominal("F"), options_);
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(flipped->atom.constant(), Value::Nominal("F"));
}

TEST_F(SplitTest, MissingPairValueDisablesFeatureWhenConstrained) {
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kIsSame, 0);
  std::vector<TrainingExample> examples = {
      Example(f, Value::Nominal("T"), true),
      Example(f, Value::Nominal("F"), false),
  };
  EXPECT_FALSE(BestPredicateForFeature(schema_, examples, f,
                                       Value::Missing(), options_)
                   .has_value());
}

TEST_F(SplitTest, NumericThresholdSeparates) {
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kBase, 0);  // "x"
  std::vector<TrainingExample> examples;
  // Positives cluster at x <= 10; negatives at x >= 20.
  for (int i = 0; i < 10; ++i) {
    examples.push_back(Example(f, Value::Number(5 + i * 0.5), true));
    examples.push_back(Example(f, Value::Number(20 + i), false));
  }
  auto split = BestPredicateForFeature(schema_, examples, f,
                                       Value::Number(7.0), options_);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->atom.op(), CompareOp::kLe);
  ASSERT_TRUE(split->atom.constant().is_numeric());
  const double threshold = split->atom.constant().number();
  EXPECT_GE(threshold, 9.5);   // all positives inside
  EXPECT_LT(threshold, 20.0);  // all negatives outside
  EXPECT_NEAR(split->gain, 1.0, 1e-9);
}

TEST_F(SplitTest, NumericThresholdRespectsPairConstraint) {
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kBase, 0);
  std::vector<TrainingExample> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(Example(f, Value::Number(5 + i * 0.5), true));
    examples.push_back(Example(f, Value::Number(20 + i), false));
  }
  // The pair of interest sits among the negatives; "x <= 10" would
  // misclassify it, so the best applicable predicate must include x = 25.
  auto split = BestPredicateForFeature(schema_, examples, f,
                                       Value::Number(25.0), options_);
  ASSERT_TRUE(split.has_value());
  EXPECT_TRUE(split->atom.Matches(Value::Number(25.0)))
      << split->atom.ToString();
}

TEST_F(SplitTest, GreaterEqualDirectionFound) {
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kBase, 0);
  std::vector<TrainingExample> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(Example(f, Value::Number(5 + i * 0.5), false));
    examples.push_back(Example(f, Value::Number(20 + i), true));
  }
  auto split = BestPredicateForFeature(schema_, examples, f,
                                       Value::Number(25.0), options_);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->atom.op(), CompareOp::kGe);
  EXPECT_NEAR(split->gain, 1.0, 1e-9);
}

TEST_F(SplitTest, MissingExamplesNeverSatisfyCandidates) {
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kBase, 0);
  std::vector<TrainingExample> examples;
  for (int i = 0; i < 6; ++i) {
    examples.push_back(Example(f, Value::Number(1.0 + i * 0.1), true));
    examples.push_back(Example(f, Value::Missing(), false));
  }
  auto split = BestPredicateForFeature(schema_, examples, f,
                                       Value::Number(1.2), options_);
  ASSERT_TRUE(split.has_value());
  // Splitting off the numerics separates classes perfectly because the
  // missing-valued negatives never satisfy the threshold atom.
  EXPECT_NEAR(split->gain, 1.0, 1e-9);
}

TEST_F(SplitTest, MinSupportFiltersNarrowPredicates) {
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kBase, 0);
  std::vector<TrainingExample> examples;
  // One lone positive at x=100; everything else negative at x=1.
  examples.push_back(Example(f, Value::Number(100), true));
  for (int i = 0; i < 20; ++i) {
    examples.push_back(Example(f, Value::Number(1), false));
  }
  SplitOptions strict = options_;
  strict.min_support = 3;
  auto split = BestPredicateForFeature(schema_, examples, f,
                                       Value::Number(100), strict);
  // Every predicate holding for the pair (x >= c with c > 1, or x = 100)
  // matches only the lone example, below min_support; the only surviving
  // candidates cover everything (gain 0) or nothing.
  if (split.has_value()) {
    std::size_t support = 0;
    for (const auto& example : examples) {
      if (split->atom.Eval(example.features)) ++support;
    }
    EXPECT_GE(support, 3u);
  }
}

TEST_F(SplitTest, ZeroThresholdIsPositiveZeroWhateverTheOrderOfZeros) {
  // -0.0 and +0.0 compare equal, so the order a sort leaves them in is
  // arbitrary. A threshold at zero must print as "0" for every order of
  // the zeros and either sign of the pair of interest's value. Zero wins
  // as a threshold in two places: the low extreme (`x >= min` splits the
  // present values from the missing ones) and the pair of interest's own
  // value. At the high extreme it cannot win: `x <= max` covers the same
  // rows as `x >= min`, which the ascending scan meets first.
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kBase, 0);  // "x"
  struct Case {
    const char* name;
    std::vector<double> positives;  // besides the two zeros
    std::vector<double> negatives;
    double poi;
    std::size_t missing_negatives;
    const char* expected;
  };
  const Case cases[] = {
      {"low extreme", {1, 2, 3}, {}, 3.0, 4, "x >= 0"},
      {"poi", {-2, -1}, {1, 2}, 0.0, 0, "x <= 0"},
  };
  for (const Case& c : cases) {
    for (const double first_zero : {-0.0, 0.0}) {
      for (const double poi_sign : {-1.0, 1.0}) {
        const double poi = c.poi == 0.0 ? std::copysign(0.0, poi_sign)
                                        : c.poi;
        std::vector<TrainingExample> examples;
        examples.push_back(Example(f, Value::Number(first_zero), true));
        examples.push_back(Example(f, Value::Number(-first_zero), true));
        for (double v : c.positives) {
          examples.push_back(Example(f, Value::Number(v), true));
        }
        for (double v : c.negatives) {
          examples.push_back(Example(f, Value::Number(v), false));
        }
        for (std::size_t i = 0; i < c.missing_negatives; ++i) {
          examples.push_back(Example(f, Value::Missing(), false));
        }
        auto split = BestPredicateForFeature(schema_, examples, f,
                                             Value::Number(poi), options_);
        ASSERT_TRUE(split.has_value()) << c.name;
        EXPECT_EQ(split->atom.ToString(), c.expected)
            << c.name << ", first zero " << first_zero << ", poi " << poi;
        EXPECT_FALSE(std::signbit(split->atom.constant().number())) << c.name;
        // The split is exact: it holds every positive and nothing else.
        EXPECT_EQ(split->in_total, 2 + c.positives.size()) << c.name;
        EXPECT_EQ(split->in_positive, split->in_total) << c.name;
      }
    }
  }
}

TEST_F(SplitTest, UndefinedPairFeatureYieldsNoCandidate) {
  // compare feature of a nominal raw feature is never defined.
  const std::size_t f = schema_.IndexOf(PairFeatureKind::kCompare, 1);
  std::vector<TrainingExample> examples = {
      Example(0, Value::Nominal("T"), true)};
  EXPECT_FALSE(BestPredicateForFeature(schema_, examples, f,
                                       Value::Nominal("LT"), options_)
                   .has_value());
}

TEST_F(SplitTest, EmptyExamplesYieldNoCandidate) {
  EXPECT_FALSE(BestPredicateForFeature(schema_, {}, 0, Value::Nominal("T"),
                                       options_)
                   .has_value());
}

}  // namespace
}  // namespace perfxplain
