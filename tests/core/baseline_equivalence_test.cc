// Columnar-baseline equivalence: the SimButDiff and RuleOfThumb ports to
// the columnar engine (compiled predicates, kernel isSame codes, columnar
// RReliefF) must produce explanations bitwise identical to the seed
// lazy-Value implementations — same atoms, same scores, same error codes —
// on randomized logs including missing values, zeros and NaN, and
// independently of the thread count. Both sides of every comparison
// answer the same query as bound and resolved by Engine::Prepare. Mirrors
// tests/core/columnar_equivalence_test.cc.

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
/// similar-but-unequal numerics and comma-bearing nominals. The schema
/// carries a "duration" feature so RuleOfThumb has its RReliefF target.
ExecutionLog AwkwardRandomLog(std::uint64_t seed, std::size_t n) {
  Schema schema;
  PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("y", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("duration", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const char* colors[] = {"red", "blue", "re,d"};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.push_back(rng.Bernoulli(0.15)
                         ? Value::Missing()
                         : Value::Number(rng.UniformInt(0, 3)));
    values.push_back(rng.Bernoulli(0.15)
                         ? Value::Missing()
                         : Value::Nominal(colors[rng.UniformInt(0, 2)]));
    double y = rng.Uniform(0.0, 10.0);
    if (rng.Bernoulli(0.1)) y = 0.0;
    if (rng.Bernoulli(0.05)) y = std::nan("");
    values.push_back(Value::Number(y));
    values.push_back(rng.Bernoulli(0.1)
                         ? Value::Missing()
                         : Value::Number(rng.Uniform(50.0, 200.0)));
    PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%03zu", i),
                                     std::move(values)))
                 .ok());
  }
  return log;
}

/// Resolves a pair of interest for `query` over `log`, writing the record
/// ids into the query. Returns false when the log has none.
bool PickPair(const ExecutionLog& log, Query& query, std::size_t skip = 0) {
  const PairSchema schema(log.schema());
  Query bound = query;
  PX_CHECK(bound.Bind(schema).ok());
  auto poi = FindPairOfInterest(log, schema, bound, PairFeatureOptions(),
                                skip);
  if (!poi.ok()) return false;
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;
  return true;
}

/// The columnar SimButDiff path and its lazy-Value oracle over one
/// prepared query; a query Prepare rejected fails with Prepare's status on
/// both.
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
Result<Explanation> Legacy(const SimButDiff& baseline, const ExecutionLog& log,
                           const Result<PreparedQuery>& prepared,
                           std::size_t width) {
  if (!prepared.ok()) return prepared.status();
  return baseline.ExplainLegacy(log, prepared->bound(), prepared->poi_first(),
                                prepared->poi_second(), width);
}

/// The same pair of entry points for RuleOfThumb.
Result<Explanation> Columnar(const RuleOfThumb& baseline,
                             const Result<PreparedQuery>& prepared,
                             std::size_t width) {
  if (!prepared.ok()) return prepared.status();
  return baseline.ExplainPrepared(prepared->bound(), prepared->poi_first(),
                                  prepared->poi_second(), width);
}
Result<Explanation> Legacy(const RuleOfThumb& baseline,
                           const ExecutionLog& log,
                           const Result<PreparedQuery>& prepared,
                           std::size_t width) {
  if (!prepared.ok()) return prepared.status();
  return baseline.ExplainLegacy(log, prepared->bound(), prepared->poi_first(),
                                prepared->poi_second(), width);
}

/// Asserts bitwise-identical outcomes: same ok-ness and status code, or
/// same atoms (feature, op, constant) with exactly equal scores.
void ExpectSameExplanation(const Result<Explanation>& actual,
                           const Result<Explanation>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok())
      << context << ": "
      << (actual.ok() ? expected.status().ToString()
                      : actual.status().ToString());
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << context;
    return;
  }
  ASSERT_EQ(actual->because.atoms().size(), expected->because.atoms().size())
      << context << ": " << actual->because.ToString() << " vs "
      << expected->because.ToString();
  for (std::size_t a = 0; a < expected->because.atoms().size(); ++a) {
    EXPECT_EQ(actual->because.atoms()[a], expected->because.atoms()[a])
        << context << " atom " << a << ": "
        << actual->because.atoms()[a].ToString() << " vs "
        << expected->because.atoms()[a].ToString();
  }
  ASSERT_EQ(actual->because_trace.size(), expected->because_trace.size());
  for (std::size_t a = 0; a < expected->because_trace.size(); ++a) {
    EXPECT_EQ(actual->because_trace[a].atom, expected->because_trace[a].atom);
    // Exact double equality: identical tallies must yield identical scores.
    EXPECT_EQ(actual->because_trace[a].score,
              expected->because_trace[a].score)
        << context << " atom " << a;
  }
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
        ExpectSameExplanation(
            explanation, Legacy(baseline, log, prepared, width),
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
    ExpectSameExplanation(explanation, single,
                          StrFormat("%d threads", threads));
  }
}

TEST(BaselineEquivalenceTest, SimButDiffEmptyResultQueries) {
  const ExecutionLog log = AwkwardRandomLog(21, 30);
  const Engine engine(log);
  const SimButDiff baseline(SimButDiffOptions(), &engine.snapshot()->columns());

  // A despite level no pair feature can produce compiles to always-false;
  // the legacy path scans and relates nothing. Same FailedPrecondition.
  Query impossible = GtVsSimQuery("color_isSame = X");
  impossible.first_id = log.at(0).id;
  impossible.second_id = log.at(1).id;
  const auto impossible_prepared = engine.Prepare(impossible);
  ExpectSameExplanation(Columnar(baseline, impossible_prepared, 2),
                        Legacy(baseline, log, impossible_prepared, 2),
                        "always-false despite");

  // A diff constant outside the dictionary behaves the same way.
  Query unseen = GtVsSimQuery("color_diff = (zz,qq)");
  unseen.first_id = log.at(0).id;
  unseen.second_id = log.at(1).id;
  const auto unseen_prepared = engine.Prepare(unseen);
  ExpectSameExplanation(Columnar(baseline, unseen_prepared, 2),
                        Legacy(baseline, log, unseen_prepared, 2),
                        "out-of-dictionary diff constant");

  // Unknown record ids fail identically, in Prepare, before any scan.
  Query unknown = GtVsSimQuery();
  unknown.first_id = "missing";
  unknown.second_id = "gone";
  const auto unknown_prepared = engine.Prepare(unknown);
  ExpectSameExplanation(Columnar(baseline, unknown_prepared, 2),
                        Legacy(baseline, log, unknown_prepared, 2),
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
    const std::vector<double> value_weights =
        RRelieff(log, target, options, value_rng);
    Rng columnar_rng(29);
    const std::vector<double> columnar_weights =
        RRelieff(columns, target, options, columnar_rng);
    ASSERT_EQ(columnar_weights.size(), value_weights.size());
    for (std::size_t f = 0; f < value_weights.size(); ++f) {
      // Exact equality: the columnar backend must replay the Value-path
      // arithmetic bit for bit (including NaN-laden range accumulation).
      EXPECT_EQ(columnar_weights[f], value_weights[f])
          << "seed " << seed << " feature " << f;
    }

    Rng rank_value_rng(29);
    Rng rank_columnar_rng(29);
    EXPECT_EQ(RankFeaturesByImportance(columns, target, options,
                                       rank_columnar_rng),
              RankFeaturesByImportance(log, target, options, rank_value_rng))
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

    // The constructor's ranking already runs columnar; pin it against an
    // independently computed legacy ranking.
    const std::size_t target = log.schema().IndexOf("duration");
    Rng legacy_rng(RuleOfThumbOptions().seed);
    EXPECT_EQ(baseline.ranking(),
              RankFeaturesByImportance(log, target, ReliefOptions(),
                                       legacy_rng))
        << "seed " << seed;

    Query query = GtVsSimQuery("color_isSame = T AND x_isSame = T");
    for (std::size_t skip : {0u, 3u, 9u}) {
      if (!PickPair(log, query, skip)) break;
      const auto prepared = engine.Prepare(query);
      for (std::size_t width : {1u, 3u, 8u}) {
        auto explanation = Columnar(baseline, prepared, width);
        if (explanation.ok()) ++produced;
        ExpectSameExplanation(
            explanation, Legacy(baseline, log, prepared, width),
            StrFormat("seed %llu skip %zu width %zu",
                      static_cast<unsigned long long>(seed), skip, width));
      }
    }

    // A pair that agrees everywhere (a record against itself) fails with
    // the same status on both paths.
    Query agree = query;
    agree.second_id = agree.first_id;
    const auto agree_prepared = engine.Prepare(agree);
    ExpectSameExplanation(Columnar(baseline, agree_prepared, 3),
                          Legacy(baseline, log, agree_prepared, 3),
                          "self-pair agrees everywhere");
  }
  EXPECT_GT(produced, 0u);
}

}  // namespace
}  // namespace perfxplain
