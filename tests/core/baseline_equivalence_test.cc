// Baseline equivalence: SimButDiff and RuleOfThumb on the columnar engine
// (compiled predicates, kernel isSame codes, striped RReliefF) must
// produce the explanations of the naive reference (tests/reference/) —
// same atoms, same scores, same error codes — on randomized logs including
// missing values, zeros and NaN, and independently of the thread count.
// Both sides of every comparison answer the pair of interest
// Engine::Prepare resolved. Mirrors tests/core/columnar_equivalence_test.cc.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "core/rule_of_thumb.h"
#include "core/sim_but_diff.h"
#include "ml/relief.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::GtVsSimQuery;

/// A log exercising the awkward cases: missing values, exact zeros, NaN,
/// similar-but-unequal numerics and comma-bearing nominals (the baseline
/// shape of testing::AdversarialLog).
ExecutionLog AwkwardRandomLog(std::uint64_t seed, std::size_t n) {
  testing::AdversarialLogSpec spec;
  spec.seed = seed;
  spec.rows = n;
  return testing::AdversarialLog(spec);
}

using testing::PickPair;

/// The columnar SimButDiff path over one prepared query; a query Prepare
/// rejected fails with Prepare's status.
Result<Explanation> Columnar(const SimButDiff& baseline,
                             const Result<PreparedQuery>& prepared,
                             std::size_t width, int threads = 0) {
  if (!prepared.ok()) return prepared.status();
  return baseline
      .ExplainPrepared(prepared->bound(), prepared->compiled(),
                       {{prepared->poi_first(), prepared->poi_second(), width}},
                       EnumerationOptions{threads})
      .front();
}

/// The same entry point for RuleOfThumb.
Result<Explanation> Columnar(const RuleOfThumb& baseline,
                             const Result<PreparedQuery>& prepared,
                             std::size_t width) {
  if (!prepared.ok()) return prepared.status();
  return baseline.ExplainPrepared(prepared->bound(), prepared->poi_first(),
                                  prepared->poi_second(), width);
}

/// The reference's SimButDiff for the same prepared pair of interest.
Result<reference::Clause> Reference(const ExecutionLog& log,
                                    const Result<PreparedQuery>& prepared,
                                    std::size_t width, double threshold) {
  if (!prepared.ok()) return prepared.status();
  return reference::SimButDiff(log, prepared->bound(), prepared->poi_first(),
                               prepared->poi_second(), width, threshold);
}

/// The reference's RuleOfThumb over its own RReliefF ranking.
Result<reference::Clause> Reference(const ExecutionLog& log,
                                    const Result<PreparedQuery>& prepared,
                                    std::size_t width,
                                    const std::vector<std::size_t>& ranking) {
  if (!prepared.ok()) return prepared.status();
  return reference::RuleOfThumb(log, prepared->bound(), prepared->poi_first(),
                                prepared->poi_second(), width, ranking);
}

/// The reference's RReliefF ranking with the RuleOfThumb defaults.
std::vector<std::size_t> ReferenceRanking(const ExecutionLog& log) {
  const std::size_t target = log.schema().IndexOf("duration");
  const ReliefOptions options;
  Rng rng(RuleOfThumbOptions().seed);
  return reference::RankByWeight(
      reference::RRelieff(log, target, options.iterations, options.neighbors,
                          rng),
      target);
}

TEST(BaselineEquivalenceTest, SimButDiffMatchesLegacyOnAwkwardLogs) {
  std::size_t produced = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const ExecutionLog log = AwkwardRandomLog(seed, 40);
    Query query = GtVsSimQuery("color_isSame = T AND x_isSame = T");
    if (!PickPair(log, query)) continue;
    const Engine engine(log);
    const auto prepared = engine.Prepare(query);
    for (double threshold : {0.9, 0.5, 1.0}) {
      SimButDiffOptions options;
      options.similarity_threshold = threshold;
      const SimButDiff baseline(options, &engine.snapshot()->columns());
      for (std::size_t width : {1u, 2u, 4u}) {
        auto explanation = Columnar(baseline, prepared, width);
        if (explanation.ok()) ++produced;
        testing::ExpectMatchesReference(
            explanation, Reference(log, prepared, width, threshold),
            StrFormat("seed %llu threshold %.1f width %zu",
                      static_cast<unsigned long long>(seed), threshold,
                      width));
      }
    }
  }
  // The comparison must exercise real explanations, not just matching
  // failures.
  EXPECT_GT(produced, 0u);
}

TEST(BaselineEquivalenceTest, SimButDiffThreadCountIsObservationFree) {
  const ExecutionLog log = AwkwardRandomLog(11, 50);
  Query query = GtVsSimQuery("color_isSame = T AND x_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  const Engine engine(log);
  const auto prepared = engine.Prepare(query);
  Result<Explanation> single = Status::Internal("unset");
  for (int threads : {1, 2, 3, 7}) {
    SimButDiffOptions options;
    options.threads = threads;
    const SimButDiff baseline(options, &engine.snapshot()->columns());
    auto explanation = Columnar(baseline, prepared, 3, threads);
    if (threads == 1) {
      single = std::move(explanation);
      continue;
    }
    testing::ExpectSameExplanation(explanation, single,
                          StrFormat("%d threads", threads));
  }
}

TEST(BaselineEquivalenceTest, SimButDiffEmptyResultQueries) {
  const ExecutionLog log = AwkwardRandomLog(21, 30);
  const Engine engine(log);
  const SimButDiff baseline(SimButDiffOptions(), &engine.snapshot()->columns());

  // A despite level no pair feature can produce compiles to always-false;
  // the reference scans and relates nothing. Same FailedPrecondition.
  Query impossible = GtVsSimQuery("color_isSame = X");
  impossible.first_id = log.at(0).id;
  impossible.second_id = log.at(1).id;
  const auto impossible_prepared = engine.Prepare(impossible);
  testing::ExpectMatchesReference(
      Columnar(baseline, impossible_prepared, 2),
      Reference(log, impossible_prepared, 2, 0.9), "always-false despite");

  // A diff constant outside the dictionary behaves the same way.
  Query unseen = GtVsSimQuery("color_diff = (zz,qq)");
  unseen.first_id = log.at(0).id;
  unseen.second_id = log.at(1).id;
  const auto unseen_prepared = engine.Prepare(unseen);
  testing::ExpectMatchesReference(
      Columnar(baseline, unseen_prepared, 2),
      Reference(log, unseen_prepared, 2, 0.9),
      "out-of-dictionary diff constant");

  // Unknown record ids fail identically, in Prepare, before any scan.
  Query unknown = GtVsSimQuery();
  unknown.first_id = "missing";
  unknown.second_id = "gone";
  const auto unknown_prepared = engine.Prepare(unknown);
  testing::ExpectMatchesReference(Columnar(baseline, unknown_prepared, 2),
                                  Reference(log, unknown_prepared, 2, 0.9),
                                  "unknown ids");
}

TEST(BaselineEquivalenceTest, ReliefRankingMatchesLegacy) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    const ExecutionLog log = AwkwardRandomLog(seed, 45);
    const ColumnarLog columns(log);
    const std::size_t target = log.schema().IndexOf("duration");
    ASSERT_NE(target, Schema::kNotFound);
    const ReliefOptions options;

    Rng value_rng(29);
    const std::vector<double> value_weights = reference::RRelieff(
        log, target, options.iterations, options.neighbors, value_rng);
    Rng columnar_rng(29);
    const std::vector<double> columnar_weights =
        RRelieff(columns, target, options, columnar_rng);
    ASSERT_EQ(columnar_weights.size(), value_weights.size());
    for (std::size_t f = 0; f < value_weights.size(); ++f) {
      // Exact equality: the columnar backend must replay the reference's
      // arithmetic bit for bit (including NaN-laden range accumulation).
      EXPECT_EQ(columnar_weights[f], value_weights[f])
          << "seed " << seed << " feature " << f;
    }

    Rng rank_columnar_rng(29);
    EXPECT_EQ(RankFeaturesByImportance(columns, target, options,
                                       rank_columnar_rng),
              reference::RankByWeight(value_weights, target))
        << "seed " << seed;
  }
}

TEST(BaselineEquivalenceTest, RuleOfThumbMatchesLegacyOnAwkwardLogs) {
  std::size_t produced = 0;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const ExecutionLog log = AwkwardRandomLog(seed, 40);
    const Engine engine(log);
    const RuleOfThumb baseline(RuleOfThumbOptions(),
                               &engine.snapshot()->columns());

    // The constructor's ranking already runs columnar; pin it against the
    // reference's independently computed ranking.
    const std::vector<std::size_t> ranking = ReferenceRanking(log);
    EXPECT_EQ(baseline.ranking(), ranking) << "seed " << seed;

    Query query = GtVsSimQuery("color_isSame = T AND x_isSame = T");
    for (std::size_t skip : {0u, 3u, 9u}) {
      if (!PickPair(log, query, skip)) break;
      const auto prepared = engine.Prepare(query);
      for (std::size_t width : {1u, 3u, 8u}) {
        auto explanation = Columnar(baseline, prepared, width);
        if (explanation.ok()) ++produced;
        testing::ExpectMatchesReference(
            explanation, Reference(log, prepared, width, ranking),
            StrFormat("seed %llu skip %zu width %zu",
                      static_cast<unsigned long long>(seed), skip, width));
      }
    }

    // A pair that agrees everywhere (a record against itself) fails with
    // the same status on both sides.
    Query agree = query;
    agree.second_id = agree.first_id;
    const auto agree_prepared = engine.Prepare(agree);
    testing::ExpectMatchesReference(
        Columnar(baseline, agree_prepared, 3),
        Reference(log, agree_prepared, 3, ranking),
        "self-pair agrees everywhere");
  }
  EXPECT_GT(produced, 0u);
}

}  // namespace
}  // namespace perfxplain
