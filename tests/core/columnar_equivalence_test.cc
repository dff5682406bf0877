// Fast-path equivalence: the columnar kernels, compiled predicates,
// parallel enumeration and encoded training matrix must produce the
// results of the naive reference (tests/reference/) — same related-pair
// counts, same pair of interest, same sampled training examples (same Rng
// draw sequence), same explanations — on randomized logs including missing
// values, zeros and NaN, and independently of the thread count.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/explainer.h"
#include "core/metrics.h"
#include "core/pair_enumeration.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::CausalLog;
using testing::GtVsSimQuery;
using testing::MustPredicate;

/// The reference's Definition 8/9 label counts.
RelatedCounts ReferenceCounts(const ExecutionLog& log, const Query& query) {
  RelatedCounts counts;
  for (const reference::Example& pair : reference::RelatedPairs(log, query)) {
    ++(pair.observed ? counts.observed : counts.expected);
  }
  return counts;
}

/// A log exercising the awkward cases: missing values, exact zeros, NaN,
/// similar-but-unequal numerics and comma-bearing nominals (the baseline
/// shape of testing::AdversarialLog).
ExecutionLog AwkwardRandomLog(std::uint64_t seed, std::size_t n) {
  testing::AdversarialLogSpec spec;
  spec.seed = seed;
  spec.rows = n;
  return testing::AdversarialLog(spec);
}

Query AwkwardQuery() {
  Query query = GtVsSimQuery("color_isSame = T AND x_isSame = T");
  return query;
}

TEST(ColumnarEquivalenceTest, CountRelatedPairsMatchesReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const ExecutionLog log = AwkwardRandomLog(seed, 40);
    const PairSchema schema(log.schema());
    Query query = AwkwardQuery();
    ASSERT_TRUE(query.Bind(schema).ok());
    const PairFeatureOptions options;
    const RelatedCounts expected = ReferenceCounts(log, query);
    const ColumnarLog columns(log);
    const RelatedCounts actual =
        ScanRelatedPairs(columns,
                         CompiledQuery::Compile(query, schema, columns),
                         options.sim_fraction,
                         EnumerationOptions{0, /*sample_buffer_cap=*/0})
            .counts;
    EXPECT_EQ(actual.observed, expected.observed) << "seed " << seed;
    EXPECT_EQ(actual.expected, expected.expected) << "seed " << seed;
  }
}

TEST(ColumnarEquivalenceTest, ThreadCountIsObservationFree) {
  const ExecutionLog log = AwkwardRandomLog(11, 50);
  const PairSchema schema(log.schema());
  Query query = AwkwardQuery();
  ASSERT_TRUE(query.Bind(schema).ok());
  const ColumnarLog columns(log);
  const CompiledQuery compiled = CompiledQuery::Compile(query, schema,
                                                        columns);
  const PairFeatureOptions options;
  RelatedCounts first;
  RelatedPairs first_pairs;
  for (int threads : {1, 2, 3, 7}) {
    EnumerationOptions enumeration;
    enumeration.threads = threads;
    const RelatedPairs pairs =
        ScanRelatedPairs(columns, compiled, options.sim_fraction, enumeration)
            .related;
    enumeration.sample_buffer_cap = 0;  // count only
    const RelatedCounts counts =
        ScanRelatedPairs(columns, compiled, options.sim_fraction, enumeration)
            .counts;
    if (threads == 1) {
      first = counts;
      first_pairs = pairs;
      continue;
    }
    EXPECT_EQ(counts.observed, first.observed) << threads << " threads";
    EXPECT_EQ(counts.expected, first.expected) << threads << " threads";
    ASSERT_EQ(pairs.size(), first_pairs.size()) << threads << " threads";
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(pairs[p].first, first_pairs[p].first);
      EXPECT_EQ(pairs[p].second, first_pairs[p].second);
      EXPECT_EQ(pairs[p].observed, first_pairs[p].observed);
    }
  }
}

TEST(ColumnarEquivalenceTest, SampleBufferCapIsObservationFree) {
  // The buffered (single-scan) and streaming (two-scan) sampling paths
  // must produce identical samples and consume the Rng identically.
  const ExecutionLog log = AwkwardRandomLog(57, 40);
  const PairSchema schema(log.schema());
  Query query = AwkwardQuery();
  ASSERT_TRUE(query.Bind(schema).ok());
  const ColumnarLog columns(log);
  const CompiledQuery compiled = CompiledQuery::Compile(query, schema,
                                                        columns);
  SamplerOptions sampler_options;
  sampler_options.sample_size = 64;
  auto poi = FindPairOfInterest(columns, compiled, 0.10);
  ASSERT_TRUE(poi.ok());

  std::vector<PairRef> reference;
  for (std::size_t cap : {std::size_t{1} << 21, std::size_t{0},
                          std::size_t{3}}) {
    EnumerationOptions enumeration;
    enumeration.threads = 2;
    enumeration.sample_buffer_cap = cap;
    Rng rng(4242);
    auto sampled = SampleFromScan(
        ScanRelatedPairs(columns, compiled, 0.10, enumeration), columns,
        compiled, poi->first, poi->second, 0.10, sampler_options, rng, true,
        enumeration);
    ASSERT_TRUE(sampled.ok());
    if (reference.empty()) {
      reference = sampled.value();
      continue;
    }
    ASSERT_EQ(sampled->size(), reference.size()) << "cap " << cap;
    for (std::size_t p = 0; p < reference.size(); ++p) {
      EXPECT_EQ((*sampled)[p].first, reference[p].first);
      EXPECT_EQ((*sampled)[p].second, reference[p].second);
      EXPECT_EQ((*sampled)[p].observed, reference[p].observed);
    }
  }
}

TEST(ColumnarEquivalenceTest, FindPairOfInterestMatchesReference) {
  const ExecutionLog log = AwkwardRandomLog(21, 40);
  const PairSchema schema(log.schema());
  Query query = AwkwardQuery();
  ASSERT_TRUE(query.Bind(schema).ok());
  const PairFeatureOptions options;

  const ColumnarLog columns(log);
  const CompiledQuery compiled = CompiledQuery::Compile(query, schema, columns);
  for (std::size_t skip : {0u, 1u, 2u, 5u, 10000u}) {
    const auto expected = reference::FindPairOfInterest(log, query, skip);
    const auto actual =
        FindPairOfInterest(columns, compiled, options.sim_fraction, skip);
    ASSERT_EQ(actual.ok(), expected.ok()) << "skip " << skip;
    if (expected.ok()) {
      EXPECT_EQ(actual.value(), expected.value()) << "skip " << skip;
    }
  }
}

TEST(ColumnarEquivalenceTest, BuildTrainingExamplesMatchesReference) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const ExecutionLog log = AwkwardRandomLog(seed, 36);
    const PairSchema schema(log.schema());
    Query query = AwkwardQuery();
    ASSERT_TRUE(query.Bind(schema).ok());
    const PairFeatureOptions pair_options;
    SamplerOptions sampler_options;
    sampler_options.sample_size = 64;

    auto poi = reference::FindPairOfInterest(log, query);
    if (!poi.ok()) continue;
    const ColumnarLog columns(log);
    const CompiledQuery compiled =
        CompiledQuery::Compile(query, schema, columns);

    for (bool balanced : {true, false}) {
      Rng reference_rng(1234);
      auto expected = reference::Sample(
          log, query, poi->first, poi->second, sampler_options.sample_size,
          reference_rng, balanced);
      Rng actual_rng(1234);
      auto actual = SampleFromScan(
          ScanRelatedPairs(columns, compiled, pair_options.sim_fraction),
          columns, compiled, poi->first, poi->second,
          pair_options.sim_fraction, sampler_options, actual_rng, balanced);
      ASSERT_EQ(actual.ok(), expected.ok());
      if (!expected.ok()) continue;
      ASSERT_EQ(actual->size(), expected->size()) << "seed " << seed;
      const EncodedDataset dataset(columns, schema, actual.value(),
                                   pair_options.sim_fraction);
      for (std::size_t e = 0; e < expected->size(); ++e) {
        EXPECT_EQ((*actual)[e].first, (*expected)[e].first);
        EXPECT_EQ((*actual)[e].second, (*expected)[e].second);
        EXPECT_EQ((*actual)[e].observed, (*expected)[e].observed);
        ASSERT_EQ(schema.size(), (*expected)[e].features.size());
        for (std::size_t f = 0; f < (*expected)[e].features.size(); ++f) {
          const Value& want = (*expected)[e].features[f];
          const Value got = dataset.DecodeValue(f, e);
          if (want.is_numeric() && std::isnan(want.number())) {
            ASSERT_TRUE(got.is_numeric());
            EXPECT_TRUE(std::isnan(got.number()));
          } else {
            EXPECT_EQ(got, want) << "example " << e << " feature " << f;
          }
        }
      }
      // The rng must be consumed identically (same number of draws), so
      // downstream consumers stay deterministic.
      EXPECT_EQ(actual_rng.engine()(), reference_rng.engine()());
    }
  }
}

TEST(ColumnarEquivalenceTest, EncodedExplainMatchesValuePipeline) {
  // The reference's sample and greedy clauses against Engine::Explain and
  // Engine::GenerateDespite, which run the encoded pipeline end to end.
  const ExecutionLog log = CausalLog(60, 5);
  Query query = GtVsSimQuery("decoy_c_isSame = T");
  EngineOptions engine_options;
  ExplainerOptions& options = engine_options.explainer;
  options.sampler.sample_size = 200;
  const Engine engine(log, engine_options);
  auto poi = reference::FindPairOfInterest(log, query);
  ASSERT_TRUE(poi.ok());
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;

  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto explanation = testing::PrepareAndExplain(engine, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  testing::ExpectMatchesReference(
      explanation,
      reference::PerfXplain(log, query, poi->first, poi->second,
                            options.width, options.sampler.sample_size,
                            options.seed),
      "because");

  // The despite generator must agree the same way.
  auto despite = engine.GenerateDespite(*prepared, 2);
  ASSERT_TRUE(despite.ok());
  Rng rng(options.seed);
  auto sample = reference::Sample(log, query, poi->first, poi->second,
                                  options.sampler.sample_size, rng);
  ASSERT_TRUE(sample.ok());
  reference::ClauseOptions clause;
  clause.width = 2;
  clause.target_expected = true;
  clause.excluded_raw = reference::OutcomeFeatures(log.schema(), query);
  clause.redundant = query.despite.atoms();
  const reference::Clause despite_trace =
      reference::GrowClause(log.schema(), sample.value(), clause);
  ASSERT_EQ(despite->atoms().size(), despite_trace.size());
  for (std::size_t a = 0; a < despite_trace.size(); ++a) {
    EXPECT_EQ(despite->atoms()[a], despite_trace[a].atom);
  }
}

TEST(ColumnarEquivalenceTest, ExplanationsInvariantUnderThreadCount) {
  const ExecutionLog log = CausalLog(50, 17);
  Query query = GtVsSimQuery();
  auto poi = reference::FindPairOfInterest(log, query);
  ASSERT_TRUE(poi.ok());
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;

  std::string single_threaded;
  for (int threads : {1, 3}) {
    EngineOptions engine_options;
    ExplainerOptions& options = engine_options.explainer;
    options.threads = threads;
    options.sampler.sample_size = 150;
    const Engine engine(log, engine_options);
    auto explanation = testing::PrepareAndExplain(engine, query);
    ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
    const std::string rendered = explanation->because.ToString();
    if (threads == 1) {
      single_threaded = rendered;
    } else {
      EXPECT_EQ(rendered, single_threaded);
    }
  }
}

TEST(ColumnarEquivalenceTest, EvaluateExplanationMatchesReference) {
  const ExecutionLog log = AwkwardRandomLog(77, 40);
  const PairSchema schema(log.schema());
  Query query = AwkwardQuery();
  ASSERT_TRUE(query.Bind(schema).ok());
  const PairFeatureOptions options;

  Explanation explanation;
  explanation.despite = MustPredicate("y_compare != LT");
  explanation.because = MustPredicate("x_isSame = T AND y_compare = GT");
  ASSERT_TRUE(explanation.despite.Bind(schema).ok());
  ASSERT_TRUE(explanation.because.Bind(schema).ok());

  // Reference evaluation: Definitions 4-6 over the related pairs.
  ExplanationMetrics expected;
  for (const reference::Example& pair : reference::RelatedPairs(log, query)) {
    const ExecutionRecord& a = log.at(pair.first);
    const ExecutionRecord& b = log.at(pair.second);
    if (!reference::Holds(explanation.despite, log.schema(), a, b)) continue;
    ++expected.pairs_despite;
    if (!pair.observed) ++expected.pairs_despite_exp;
    if (reference::Holds(explanation.because, log.schema(), a, b)) {
      ++expected.pairs_because;
      if (pair.observed) ++expected.pairs_because_obs;
    }
  }

  const ExplanationMetrics actual =
      EvaluateExplanation(log, schema, query, explanation, options);
  EXPECT_EQ(actual.pairs_despite, expected.pairs_despite);
  EXPECT_EQ(actual.pairs_despite_exp, expected.pairs_despite_exp);
  EXPECT_EQ(actual.pairs_because, expected.pairs_because);
  EXPECT_EQ(actual.pairs_because_obs, expected.pairs_because_obs);
}

}  // namespace
}  // namespace perfxplain
