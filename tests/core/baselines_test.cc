#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "core/rule_of_thumb.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::CausalLog;
using perfxplain::testing::GtVsSimQuery;

/// One baseline request through Engine::Prepare and Engine::Explain.
Result<Explanation> ExplainWith(const Engine& engine, Technique technique,
                                const Query& query, std::size_t width) {
  ExplainRequest request;
  request.technique = technique;
  request.width = width;
  return testing::PrepareAndExplain(engine, query, request);
}

EngineOptions WithSimButDiff(const SimButDiffOptions& options) {
  EngineOptions engine_options;
  engine_options.sim_but_diff = options;
  return engine_options;
}

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : log_(CausalLog(120, 77)) {}

  Query MakeQuery() {
    Query query = GtVsSimQuery();
    auto poi = reference::FindPairOfInterest(log_, query);
    PX_CHECK(poi.ok());
    query.first_id = log_.at(poi->first).id;
    query.second_id = log_.at(poi->second).id;
    return query;
  }

  ExecutionLog log_;
};

TEST_F(BaselinesTest, RuleOfThumbRanksCauseHighly) {
  const ColumnarLog columns(log_);
  RuleOfThumb baseline(RuleOfThumbOptions(), &columns);
  const auto& ranking = baseline.ranking();
  ASSERT_EQ(ranking.size(), log_.schema().size() - 1);  // duration excluded
  // `cause` (index 0) must rank above both decoys.
  EXPECT_EQ(ranking[0], 0u);
}

TEST_F(BaselinesTest, RuleOfThumbExplainsWithIsSameDisagreements) {
  const Engine engine(log_);
  auto explanation =
      ExplainWith(engine, Technique::kRuleOfThumb, MakeQuery(), 2);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  ASSERT_GE(explanation->because.width(), 1u);
  for (const Atom& atom : explanation->because.atoms()) {
    EXPECT_NE(atom.feature().find("_isSame"), std::string::npos);
    EXPECT_EQ(atom.constant(), Value::Nominal("F"));
  }
  // The top disagreeing important feature is the cause.
  EXPECT_EQ(explanation->because.atoms()[0].feature(), "cause_isSame");
}

TEST_F(BaselinesTest, RuleOfThumbSkipsOutcomeFeatures) {
  const Engine engine(log_);
  auto explanation =
      ExplainWith(engine, Technique::kRuleOfThumb, MakeQuery(), 5);
  ASSERT_TRUE(explanation.ok());
  for (const Atom& atom : explanation->because.atoms()) {
    EXPECT_EQ(atom.feature().find("duration"), std::string::npos);
  }
}

TEST_F(BaselinesTest, RuleOfThumbFailsWhenPairAgreesEverywhere) {
  // Construct a pair that agrees on every feature: impossible to explain by
  // pointing at disagreements.
  const Engine engine(log_);
  Query query = MakeQuery();
  query.second_id = query.first_id;  // same record twice: all isSame = T
  auto explanation = ExplainWith(engine, Technique::kRuleOfThumb, query, 3);
  EXPECT_FALSE(explanation.ok());
}

TEST_F(BaselinesTest, SimButDiffProducesApplicableExplanation) {
  const Engine engine(log_);
  const Query query = MakeQuery();
  auto explanation = ExplainWith(engine, Technique::kSimButDiff, query, 2);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_EQ(explanation->because.width(), 2u);
  // Every atom asserts the pair's own isSame value (applicability).
  const ExecutionRecord& first = log_.at(log_.Find(query.first_id).value());
  const ExecutionRecord& second =
      log_.at(log_.Find(query.second_id).value());
  for (const Atom& atom : explanation->because.atoms()) {
    EXPECT_NE(atom.feature().find("_isSame"), std::string::npos);
    EXPECT_TRUE(
        reference::Holds(Predicate({atom}), log_.schema(), first, second))
        << atom.ToString();
  }
}

TEST_F(BaselinesTest, SimButDiffRespectsWidth) {
  const Engine engine(log_);
  for (std::size_t width : {1u, 3u}) {
    auto explanation =
        ExplainWith(engine, Technique::kSimButDiff, MakeQuery(), width);
    ASSERT_TRUE(explanation.ok());
    EXPECT_LE(explanation->because.width(), width);
  }
}

TEST_F(BaselinesTest, SimButDiffThresholdOneRequiresExactAgreement) {
  SimButDiffOptions options;
  options.similarity_threshold = 1.0;
  const Engine engine(log_, WithSimButDiff(options));
  // With threshold 1.0 a training pair must agree on *every* isSame
  // feature; the explanation may fail for lack of similar pairs, but it
  // must not crash, and any produced explanation is still applicable.
  auto explanation =
      ExplainWith(engine, Technique::kSimButDiff, MakeQuery(), 2);
  if (!explanation.ok()) {
    EXPECT_EQ(explanation.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST_F(BaselinesTest, SimButDiffRejectsUnknownIds) {
  const Engine engine(log_);
  Query query = GtVsSimQuery();
  query.first_id = "missing";
  query.second_id = "gone";
  EXPECT_FALSE(ExplainWith(engine, Technique::kSimButDiff, query, 2).ok());
}

}  // namespace
}  // namespace perfxplain
