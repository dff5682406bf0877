#include "core/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::GtVsSimQuery;
using perfxplain::testing::MustPredicate;
using perfxplain::testing::TinyRecord;
using perfxplain::testing::TinySchema;

/// Hand-constructed four-record log whose pair populations are small enough
/// to count on paper:
///   a: x=1,  red,  duration=100
///   b: x=1,  red,  duration=102   (SIM to a)
///   c: x=9,  blue, duration=200   (GT vs a/b)
///   d: x=9,  blue, duration=198   (SIM to c, GT vs a/b)
class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() : log_(TinySchema()), schema_(TinySchema()) {
    PX_CHECK(log_.Add(TinyRecord("a", 1, "red", 100)).ok());
    PX_CHECK(log_.Add(TinyRecord("b", 1, "red", 102)).ok());
    PX_CHECK(log_.Add(TinyRecord("c", 9, "blue", 200)).ok());
    PX_CHECK(log_.Add(TinyRecord("d", 9, "blue", 198)).ok());
    query_ = GtVsSimQuery();
    PX_CHECK(query_.Bind(schema_).ok());
  }

  Predicate Bound(const std::string& text) {
    Predicate predicate = MustPredicate(text);
    PX_CHECK(predicate.Bind(schema_).ok());
    return predicate;
  }

  ExecutionLog log_;
  PairSchema schema_;
  Query query_;
  PairFeatureOptions options_;
};

TEST_F(MetricsTest, EmptyExplanationBaseRates) {
  // Related pairs (ordered): GT pairs = {c,d}x{a,b} = 4;
  // SIM pairs: (a,b),(b,a),(c,d),(d,c) = 4. Total related = 8.
  Explanation empty;
  const ExplanationMetrics metrics =
      EvaluateExplanation(log_, schema_, query_, empty, options_);
  EXPECT_EQ(metrics.pairs_despite, 8u);
  EXPECT_EQ(metrics.pairs_because, 8u);
  EXPECT_EQ(metrics.pairs_because_obs, 4u);
  EXPECT_DOUBLE_EQ(metrics.precision, 0.5);
  EXPECT_DOUBLE_EQ(metrics.generality, 1.0);
  EXPECT_DOUBLE_EQ(metrics.relevance, 0.5);
}

TEST_F(MetricsTest, PerfectBecauseClause) {
  // GT pairs are exactly those where J1's x is much greater.
  Explanation explanation;
  explanation.because = Bound("x_compare = GT");
  const ExplanationMetrics metrics =
      EvaluateExplanation(log_, schema_, query_, explanation, options_);
  EXPECT_EQ(metrics.pairs_because, 4u);
  EXPECT_EQ(metrics.pairs_because_obs, 4u);
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);
  EXPECT_DOUBLE_EQ(metrics.generality, 0.5);
}

TEST_F(MetricsTest, UselessBecauseClause) {
  // color_isSame = F holds for exactly the GT pairs too... no: red vs blue
  // differs for cross-group pairs only, which are exactly the GT pairs, so
  // use x_isSame = T (within-group pairs = SIM pairs) to get precision 0.
  Explanation explanation;
  explanation.because = Bound("x_isSame = T");
  const ExplanationMetrics metrics =
      EvaluateExplanation(log_, schema_, query_, explanation, options_);
  EXPECT_EQ(metrics.pairs_because, 4u);
  EXPECT_DOUBLE_EQ(metrics.precision, 0.0);
  EXPECT_DOUBLE_EQ(metrics.generality, 0.5);
}

TEST_F(MetricsTest, DespiteExtensionNarrowsPopulation) {
  // des' = color_isSame = T keeps only within-group (SIM) pairs, so the
  // expected behavior dominates: relevance = 1.
  Explanation explanation;
  explanation.despite = Bound("color_isSame = T");
  explanation.because = Bound("x_compare = SIM");
  const ExplanationMetrics metrics =
      EvaluateExplanation(log_, schema_, query_, explanation, options_);
  EXPECT_EQ(metrics.pairs_despite, 4u);
  EXPECT_DOUBLE_EQ(metrics.relevance, 1.0);
  EXPECT_DOUBLE_EQ(metrics.generality, 1.0);
  EXPECT_DOUBLE_EQ(metrics.precision, 0.0);  // no GT pair survives
}

TEST_F(MetricsTest, UserDespiteRestrictsRelatedPairs) {
  // Query with despite x_isSame = T: only within-group pairs are related.
  Query query = GtVsSimQuery("x_isSame = T");
  ASSERT_TRUE(query.Bind(schema_).ok());
  Explanation empty;
  const ExplanationMetrics metrics =
      EvaluateExplanation(log_, schema_, query, empty, options_);
  EXPECT_EQ(metrics.pairs_despite, 4u);
  EXPECT_DOUBLE_EQ(metrics.relevance, 1.0);  // all such pairs are SIM
}

TEST_F(MetricsTest, EmptyPopulationGivesZeroes) {
  Query query = GtVsSimQuery("color_diff = (green,green)");
  ASSERT_TRUE(query.Bind(schema_).ok());
  Explanation empty;
  const ExplanationMetrics metrics =
      EvaluateExplanation(log_, schema_, query, empty, options_);
  EXPECT_EQ(metrics.pairs_despite, 0u);
  EXPECT_DOUBLE_EQ(metrics.precision, 0.0);
  EXPECT_DOUBLE_EQ(metrics.relevance, 0.0);
  EXPECT_DOUBLE_EQ(metrics.generality, 0.0);
}

TEST_F(MetricsTest, DespiteRelevanceHelper) {
  // The relevance of a despite clause alone (§6.4): an explanation with
  // that despite and no because.
  const auto relevance = [&](Predicate despite) {
    Explanation despite_only;
    despite_only.despite = std::move(despite);
    return EvaluateExplanation(log_, schema_, query_, despite_only, options_)
        .relevance;
  };
  EXPECT_DOUBLE_EQ(relevance(Predicate::True()), 0.5);
  EXPECT_DOUBLE_EQ(relevance(Bound("color_isSame = T")), 1.0);
  EXPECT_DOUBLE_EQ(relevance(Bound("color_isSame = F")), 0.0);
}

TEST_F(MetricsTest, IsApplicableChecksBothClauses) {
  Explanation explanation;
  explanation.despite = Bound("color_isSame = F");
  explanation.because = Bound("x_compare = GT");
  EXPECT_TRUE(IsApplicable(explanation, schema_, log_.at(2), log_.at(0),
                           options_));  // c vs a
  EXPECT_FALSE(IsApplicable(explanation, schema_, log_.at(0), log_.at(1),
                            options_));  // a vs b: same color
}

/// Definition 3 in the reference: the columnar IsApplicable is pinned to
/// it.
bool IsApplicableLazy(const Explanation& explanation, const PairSchema& schema,
                      const ExecutionRecord& first,
                      const ExecutionRecord& second,
                      const PairFeatureOptions& options) {
  EXPECT_EQ(options.sim_fraction, PairFeatureOptions().sim_fraction);
  return reference::Holds(explanation.despite, schema.raw(), first, second) &&
         reference::Holds(explanation.because, schema.raw(), first, second);
}

TEST_F(MetricsTest, IsApplicableMatchesLazyViewOnAdHocPairs) {
  // Ad-hoc records that belong to no log: duplicate ids, missing values,
  // NaN and signed-zero numerics, similar-but-unequal values, and a nominal
  // level ("green") no other record carries. The columnar IsApplicable
  // builds a two-row log per call, so the dictionary differs per pair; the
  // verdicts must still match the reference everywhere.
  const double nan = std::nan("");
  std::vector<ExecutionRecord> records;
  records.push_back(TinyRecord("p", 1, "red", 100));
  records.push_back(TinyRecord("p", 1.05, "red", 102));  // duplicate id
  records.push_back(TinyRecord("q", 9, "green", 200));
  records.push_back(ExecutionRecord(
      "m", {Value::Missing(), Value::Missing(), Value::Number(nan)}));
  records.push_back(ExecutionRecord(
      "z", {Value::Number(0.0), Value::Missing(), Value::Number(-0.0)}));
  records.push_back(TinyRecord("b", 9.2, "blue", 198));

  std::vector<Explanation> explanations;
  auto add = [&](const std::string& despite, const std::string& because) {
    Explanation e;
    if (!despite.empty()) e.despite = Bound(despite);
    if (!because.empty()) e.because = Bound(because);
    explanations.push_back(std::move(e));
  };
  add("", "");  // both clauses empty: applicable to every pair
  add("color_isSame = T", "x_compare = GT");
  add("", "x_isSame = F");
  add("", "x_isSame != T");
  add("", "color_diff = (red,green)");
  add("", "color_diff = (zz,qq)");   // out-of-dictionary diff constant
  add("", "color_diff != (red,red)");
  add("", "x = 0");                  // base numeric equality (+-0)
  add("", "duration > 150");         // base numeric ordering (NaN rows)
  add("", "color = red");            // base nominal
  add("", "color != red");
  add("", "duration_compare = SIM");
  add("color_isSame = F", "x_compare != LT");

  for (const ExecutionRecord& first : records) {
    for (const ExecutionRecord& second : records) {
      for (std::size_t e = 0; e < explanations.size(); ++e) {
        EXPECT_EQ(
            IsApplicable(explanations[e], schema_, first, second, options_),
            IsApplicableLazy(explanations[e], schema_, first, second,
                             options_))
            << "records (" << first.id << "," << second.id
            << ") explanation " << e;
      }
    }
  }
}

TEST_F(MetricsTest, IsApplicableAcceptsRecordsFromDifferentLogs) {
  // One record from the fixture log, one ad-hoc: nothing requires the pair
  // to share a log (the different-job experiment compares across logs).
  const ExecutionRecord other = TinyRecord("elsewhere", 9, "blue", 210);
  Explanation explanation;
  explanation.because = Bound("x_compare = GT");
  EXPECT_TRUE(
      IsApplicable(explanation, schema_, other, log_.at(0), options_));
  EXPECT_EQ(
      IsApplicable(explanation, schema_, other, log_.at(0), options_),
      IsApplicableLazy(explanation, schema_, other, log_.at(0), options_));
}

}  // namespace
}  // namespace perfxplain
