#include "core/explainer.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/engine.h"
#include "core/metrics.h"
#include "core/pair_enumeration.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::CausalLog;
using perfxplain::testing::GtVsSimQuery;
using perfxplain::testing::PrepareAndExplain;

EngineOptions WithExplainer(const ExplainerOptions& options) {
  EngineOptions engine_options;
  engine_options.explainer = options;
  return engine_options;
}

/// Fixture: a log where duration = 100 * cause, so a GT-duration pair is
/// explained exactly by cause_compare = GT.
class ExplainerTest : public ::testing::Test {
 protected:
  ExplainerTest() : log_(CausalLog(120, 99)) {}

  /// Query 2-shaped question with a pair of interest found in the log.
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

TEST_F(ExplainerTest, FindsTheCausalFeature) {
  ExplainerOptions options;
  options.width = 1;
  const Engine engine(log_, WithExplainer(options));
  auto explanation = PrepareAndExplain(engine, MakeQuery());
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  ASSERT_EQ(explanation->because.width(), 1u);
  const Atom& atom = explanation->because.atoms()[0];
  // The single most precise-and-general applicable atom concerns `cause`.
  EXPECT_TRUE(atom.feature() == "cause_compare" ||
              atom.feature() == "cause_isSame" || atom.feature() == "cause")
      << atom.ToString();
}

TEST_F(ExplainerTest, ExplanationIsApplicableToPairOfInterest) {
  const Engine engine(log_);
  const Query query = MakeQuery();
  auto explanation = PrepareAndExplain(engine, query);
  ASSERT_TRUE(explanation.ok());
  const std::size_t first = log_.Find(query.first_id).value();
  const std::size_t second = log_.Find(query.second_id).value();
  PairFeatureOptions pair_options;
  EXPECT_TRUE(IsApplicable(*explanation, engine.pair_schema(),
                           log_.at(first), log_.at(second), pair_options));
}

TEST_F(ExplainerTest, NeverCitesTheOutcomeFeature) {
  ExplainerOptions options;
  options.width = 5;
  const Engine engine(log_, WithExplainer(options));
  auto explanation = PrepareAndExplain(engine, MakeQuery());
  ASSERT_TRUE(explanation.ok());
  for (const Atom& atom : explanation->because.atoms()) {
    EXPECT_EQ(atom.feature().find("duration"), std::string::npos)
        << atom.ToString();
  }
}

TEST_F(ExplainerTest, DeterministicGivenSeed) {
  const Engine engine(log_);
  const Query query = MakeQuery();
  auto first = PrepareAndExplain(engine, query);
  auto second = PrepareAndExplain(engine, query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->because, second->because);
}

TEST_F(ExplainerTest, HighPrecisionOnTheLog) {
  const Engine engine(log_);
  const Query query = MakeQuery();
  auto explanation = PrepareAndExplain(engine, query);
  ASSERT_TRUE(explanation.ok());
  Query bound = query;
  ASSERT_TRUE(bound.Bind(engine.pair_schema()).ok());
  const ExplanationMetrics metrics = EvaluateExplanation(
      log_, engine.pair_schema(), bound, *explanation,
      PairFeatureOptions());
  EXPECT_GT(metrics.precision, 0.9);
  EXPECT_GT(metrics.generality, 0.05);
}

TEST_F(ExplainerTest, WidthControlsAtomCount) {
  for (std::size_t width : {1u, 2u, 3u}) {
    ExplainerOptions options;
    options.width = width;
    const Engine engine(log_, WithExplainer(options));
    auto explanation = PrepareAndExplain(engine, MakeQuery());
    ASSERT_TRUE(explanation.ok());
    EXPECT_LE(explanation->because.width(), width);
    EXPECT_GE(explanation->because.width(), 1u);
  }
}

TEST_F(ExplainerTest, TraceRecordsSelectionDiagnostics) {
  const Engine engine(log_);
  auto explanation = PrepareAndExplain(engine, MakeQuery());
  ASSERT_TRUE(explanation.ok());
  ASSERT_EQ(explanation->because_trace.size(),
            explanation->because.width());
  for (const ExplanationAtom& atom : explanation->because_trace) {
    EXPECT_GE(atom.generality_after, 0.0);
    EXPECT_LE(atom.generality_after, 1.0);
    EXPECT_GE(atom.metric_after, 0.0);
    EXPECT_LE(atom.metric_after, 1.0);
  }
  // Precision over the (balanced) training sample should not decrease as
  // atoms are appended greedily.
  for (std::size_t i = 1; i < explanation->because_trace.size(); ++i) {
    EXPECT_GE(explanation->because_trace[i].metric_after + 1e-9,
              explanation->because_trace[i - 1].metric_after);
  }
}

TEST_F(ExplainerTest, GenerateDespiteRaisesRelevance) {
  // A log designed for despite-clause generation: phase-A records have two
  // tight duration levels (mostly SIM pairs, a few GT), phase-B records
  // have wild durations. The pair of interest is a GT pair inside phase A,
  // so the relevance-maximizing applicable clause is "both jobs in phase A"
  // (phase = A as a base feature, or phase_isSame/diff equivalents).
  Schema schema;
  PX_CHECK(schema.Add("phase", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("knob", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("duration", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng data_rng(5);
  auto add = [&](const std::string& id, const std::string& phase,
                 double duration) {
    PX_CHECK(log.Add(ExecutionRecord(
                         id, {Value::Nominal(phase),
                              Value::Number(data_rng.Uniform(0, 100)),
                              Value::Number(duration)}))
                 .ok());
  };
  for (int i = 0; i < 40; ++i) {
    add("a" + std::to_string(i), "A", 100.0 + data_rng.Uniform(-2, 2));
  }
  for (int i = 0; i < 8; ++i) {
    add("ahigh" + std::to_string(i), "A", 130.0 + data_rng.Uniform(-2, 2));
  }
  for (int i = 0; i < 40; ++i) {
    add("b" + std::to_string(i), "B", data_rng.Uniform(60, 600));
  }

  const Engine engine(log);
  Query query = GtVsSimQuery();
  PX_CHECK(query.Bind(engine.pair_schema()).ok());
  // Pair of interest: a GT pair within phase A.
  query.first_id = "ahigh0";
  query.second_id = "a0";

  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto despite = engine.GenerateDespite(*prepared, 3);
  ASSERT_TRUE(despite.ok()) << despite.status().ToString();
  Query bound = query;
  ASSERT_TRUE(bound.Bind(engine.pair_schema()).ok());
  Predicate generated = despite.value();
  ASSERT_TRUE(generated.Bind(engine.pair_schema()).ok());
  // Relevance of a despite clause alone: an explanation with no because.
  const auto relevance = [&](Predicate despite) {
    Explanation despite_only;
    despite_only.despite = std::move(despite);
    return EvaluateExplanation(log, engine.pair_schema(), bound,
                               despite_only, PairFeatureOptions())
        .relevance;
  };
  const double before = relevance(Predicate::True());
  const double after = relevance(generated);
  EXPECT_GT(after, before + 0.1);
}

TEST_F(ExplainerTest, AutoDespiteProducesBothClauses) {
  const Engine engine(log_);
  ExplainRequest request;
  request.auto_despite = true;
  auto explanation = PrepareAndExplain(engine, MakeQuery(), request);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_FALSE(explanation->because.is_true());
  EXPECT_FALSE(explanation->despite.is_true());
}

TEST_F(ExplainerTest, RejectsQueryWithoutIds) {
  const Engine engine(log_);
  Query query = GtVsSimQuery();
  const auto result = PrepareAndExplain(engine, query);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExplainerTest, RejectsUnknownIds) {
  const Engine engine(log_);
  Query query = GtVsSimQuery();
  query.first_id = "nope";
  query.second_id = "also_nope";
  EXPECT_EQ(PrepareAndExplain(engine, query).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExplainerTest, RejectsPairViolatingObserved) {
  const Engine engine(log_);
  Query query = MakeQuery();
  // Swap the pair: now J1 is the *faster* one, so OBSERVED GT fails.
  std::swap(query.first_id, query.second_id);
  const auto result = PrepareAndExplain(engine, query);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExplainerTest, RejectsNonDisjointQuery) {
  const Engine engine(log_);
  Query query = MakeQuery();
  query.expected = perfxplain::testing::MustPredicate("decoy_c_isSame = T");
  EXPECT_EQ(PrepareAndExplain(engine, query).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ExplainerTest, Level1RestrictsToIsSameAtoms) {
  ExplainerOptions options;
  options.level = FeatureLevel::kLevel1;
  options.width = 3;
  const Engine engine(log_, WithExplainer(options));
  auto explanation = PrepareAndExplain(engine, MakeQuery());
  ASSERT_TRUE(explanation.ok());
  for (const Atom& atom : explanation->because.atoms()) {
    EXPECT_NE(atom.feature().find("_isSame"), std::string::npos)
        << atom.ToString();
  }
}

/// Property sweep: across data seeds and widths, every explanation is
/// applicable to its pair of interest, never cites the outcome feature,
/// respects the width budget, and improves on the base-rate precision.
class ExplainerSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(ExplainerSweepTest, InvariantsHold) {
  const auto [seed, width] = GetParam();
  const ExecutionLog log = CausalLog(100, seed);
  ExplainerOptions options;
  options.width = width;
  const Engine engine(log, WithExplainer(options));

  Query query = GtVsSimQuery();
  ASSERT_TRUE(query.Bind(engine.pair_schema()).ok());
  auto poi = reference::FindPairOfInterest(log, query);
  ASSERT_TRUE(poi.ok());
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;

  auto explanation = PrepareAndExplain(engine, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_LE(explanation->because.width(), width);
  EXPECT_GE(explanation->because.width(), 1u);
  for (const Atom& atom : explanation->because.atoms()) {
    EXPECT_EQ(atom.feature().find("duration"), std::string::npos)
        << atom.ToString();
  }
  EXPECT_TRUE(IsApplicable(*explanation, engine.pair_schema(),
                           log.at(poi->first), log.at(poi->second),
                           PairFeatureOptions()));

  Query bound = query;
  ASSERT_TRUE(bound.Bind(engine.pair_schema()).ok());
  const ExplanationMetrics metrics = EvaluateExplanation(
      log, engine.pair_schema(), bound, *explanation,
      PairFeatureOptions());
  Explanation empty;
  const ExplanationMetrics base = EvaluateExplanation(
      log, engine.pair_schema(), bound, empty, PairFeatureOptions());
  EXPECT_GE(metrics.precision + 1e-9, base.precision)
      << "seed " << seed << " width " << width;
  EXPECT_GT(metrics.generality, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWidths, ExplainerSweepTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(11, 22, 33, 44),
                       ::testing::Values<std::size_t>(1, 2, 3, 4)));

TEST_F(ExplainerTest, BuildExamplesIncludesPoiFirst) {
  const Engine engine(log_);
  const Query query = MakeQuery();
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  const std::size_t first = log_.Find(query.first_id).value();
  const std::size_t second = log_.Find(query.second_id).value();
  const Explainer& explainer = engine.explainer();
  const RelatedPairScan scan =
      ScanRelatedPairs(engine.snapshot()->columns(), prepared->compiled(),
                       explainer.options().pair.sim_fraction);
  auto examples = explainer.BuildEncodedExamplesFromScan(
      prepared->bound(), scan, prepared->poi_first(), prepared->poi_second(),
      explainer.options());
  ASSERT_TRUE(examples.ok());
  ASSERT_GT(examples->rows(), 0u);
  EXPECT_EQ(examples->pairs().front().first, first);
  EXPECT_EQ(examples->pairs().front().second, second);
  EXPECT_TRUE(examples->pairs().front().observed);
}

}  // namespace
}  // namespace perfxplain
