// Fast-path equivalence: the columnar kernels, compiled predicates,
// parallel enumeration and encoded training matrix must produce results
// identical to the legacy Value path — same related-pair counts, same pair
// of interest, same sampled training examples (same Rng draw sequence),
// same explanations — on randomized logs including missing values, zeros
// and NaN, and independently of the thread count.

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

/// The seed implementation of the related-pair count: lazy Value views
/// all the way down. The production code now runs the columnar
/// ScanRelatedPairs; this reference pins the original semantics.
RelatedCounts ReferenceCountRelatedPairs(const ExecutionLog& log,
                                         const PairSchema& schema,
                                         const Query& bound_query,
                                         const PairFeatureOptions& options) {
  RelatedCounts counts;
  ForEachOrderedPair(log, schema, options,
                     [&](std::size_t, std::size_t,
                         const PairFeatureView& view) {
                       switch (ClassifyPair(bound_query, view)) {
                         case PairLabel::kObserved:
                           ++counts.observed;
                           break;
                         case PairLabel::kExpected:
                           ++counts.expected;
                           break;
                         case PairLabel::kUnrelated:
                           break;
                       }
                       return true;
                     });
  return counts;
}

/// The seed implementation of BuildTrainingExamples (two lazy passes plus
/// per-related-pair Bernoulli draws in row-major order).
Result<std::vector<TrainingExample>> ReferenceBuildTrainingExamples(
    const ExecutionLog& log, const PairSchema& schema,
    const Query& bound_query, std::size_t poi_first, std::size_t poi_second,
    const PairFeatureOptions& pair_options,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced = true) {
  if (poi_first >= log.size() || poi_second >= log.size() ||
      poi_first == poi_second) {
    return Status::InvalidArgument("pair of interest indexes out of range");
  }
  const RelatedCounts counts =
      ReferenceCountRelatedPairs(log, schema, bound_query, pair_options);
  if (counts.total() == 0) {
    return Status::FailedPrecondition(
        "no pairs in the log are related to the query");
  }
  const double m = static_cast<double>(sampler_options.sample_size);
  double p_observed;
  double p_expected;
  if (balanced) {
    p_observed =
        counts.observed == 0
            ? 0.0
            : std::min(1.0, m / (2.0 * static_cast<double>(counts.observed)));
    p_expected =
        counts.expected == 0
            ? 0.0
            : std::min(1.0,
                       m / (2.0 * static_cast<double>(counts.expected)));
  } else {
    const double uniform =
        std::min(1.0, m / static_cast<double>(counts.total()));
    p_observed = uniform;
    p_expected = uniform;
  }
  std::vector<TrainingExample> examples;
  {
    PairFeatureView poi_view(&schema, &log.at(poi_first), &log.at(poi_second),
                             &pair_options);
    TrainingExample poi;
    poi.first = poi_first;
    poi.second = poi_second;
    poi.observed = true;
    poi.features = poi_view.Materialize();
    examples.push_back(std::move(poi));
  }
  ForEachOrderedPair(
      log, schema, pair_options,
      [&](std::size_t i, std::size_t j, const PairFeatureView& view) {
        if (i == poi_first && j == poi_second) return true;
        const PairLabel label = ClassifyPair(bound_query, view);
        if (label == PairLabel::kUnrelated) return true;
        const bool observed = label == PairLabel::kObserved;
        if (!rng.Bernoulli(observed ? p_observed : p_expected)) return true;
        TrainingExample example;
        example.first = i;
        example.second = j;
        example.observed = observed;
        example.features = view.Materialize();
        examples.push_back(std::move(example));
        return true;
      });
  return examples;
}

/// A log exercising the awkward cases: missing values, exact zeros, NaN,
/// similar-but-unequal numerics and comma-bearing nominals.
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
    const RelatedCounts expected =
        ReferenceCountRelatedPairs(log, schema, query, options);
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
  std::vector<PairRef> first_pairs;
  for (int threads : {1, 2, 3, 7}) {
    EnumerationOptions enumeration;
    enumeration.threads = threads;
    const std::vector<PairRef> pairs =
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

  // Reference: first (after `skip`) observed-labeled pair in row-major
  // order, via the legacy lazy path.
  auto reference = [&](std::size_t skip)
      -> Result<std::pair<std::size_t, std::size_t>> {
    std::size_t remaining = skip;
    std::pair<std::size_t, std::size_t> found{0, 0};
    bool ok = false;
    ForEachOrderedPair(log, schema, options,
                       [&](std::size_t i, std::size_t j,
                           const PairFeatureView& view) {
                         if (ClassifyPair(query, view) !=
                             PairLabel::kObserved) {
                           return true;
                         }
                         if (remaining > 0) {
                           --remaining;
                           return true;
                         }
                         found = {i, j};
                         ok = true;
                         return false;
                       });
    if (!ok) return Status::NotFound("none");
    return found;
  };

  for (std::size_t skip : {0u, 1u, 2u, 5u, 10000u}) {
    const auto expected = reference(skip);
    const auto actual = FindPairOfInterest(log, schema, query, options,
                                           skip);
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

    auto poi = FindPairOfInterest(log, schema, query, pair_options);
    if (!poi.ok()) continue;

    for (bool balanced : {true, false}) {
      Rng reference_rng(1234);
      auto expected = ReferenceBuildTrainingExamples(
          log, schema, query, poi->first, poi->second, pair_options,
          sampler_options, reference_rng, balanced);
      Rng actual_rng(1234);
      auto actual = BuildTrainingExamples(log, schema, query, poi->first,
                                          poi->second, pair_options,
                                          sampler_options, actual_rng,
                                          balanced);
      ASSERT_EQ(actual.ok(), expected.ok());
      if (!expected.ok()) continue;
      ASSERT_EQ(actual->size(), expected->size()) << "seed " << seed;
      for (std::size_t e = 0; e < expected->size(); ++e) {
        EXPECT_EQ((*actual)[e].first, (*expected)[e].first);
        EXPECT_EQ((*actual)[e].second, (*expected)[e].second);
        EXPECT_EQ((*actual)[e].observed, (*expected)[e].observed);
        ASSERT_EQ((*actual)[e].features.size(),
                  (*expected)[e].features.size());
        for (std::size_t f = 0; f < (*expected)[e].features.size(); ++f) {
          const Value& want = (*expected)[e].features[f];
          const Value& got = (*actual)[e].features[f];
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
  // Compose the explanation out of the Value-path oracles and compare with
  // Engine::Explain, which runs the encoded pipeline end to end.
  const ExecutionLog log = CausalLog(60, 5);
  Query query = GtVsSimQuery("decoy_c_isSame = T");
  EngineOptions engine_options;
  ExplainerOptions& options = engine_options.explainer;
  options.sampler.sample_size = 200;
  const Engine engine(log, engine_options);
  const Explainer& explainer = engine.explainer();
  auto poi = FindPairOfInterest(log, explainer.pair_schema(), [&] {
    Query bound = query;
    PX_CHECK(bound.Bind(explainer.pair_schema()).ok());
    return bound;
  }(), options.pair);
  ASSERT_TRUE(poi.ok());
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;

  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const Query& bound = prepared->bound();
  auto value_examples = explainer.BuildExamples(
      log, bound, prepared->poi_first(), prepared->poi_second());
  ASSERT_TRUE(value_examples.ok());
  const std::vector<ExplanationAtom> value_trace = explainer.GenerateClause(
      value_examples.value(), options.width, /*target_expected=*/false,
      explainer.ExcludedRawFeatures(bound), bound.despite.atoms());

  auto explanation = testing::PrepareAndExplain(engine, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  ASSERT_EQ(explanation->because_trace.size(), value_trace.size());
  for (std::size_t a = 0; a < value_trace.size(); ++a) {
    EXPECT_EQ(explanation->because_trace[a].atom, value_trace[a].atom)
        << explanation->because_trace[a].atom.ToString() << " vs "
        << value_trace[a].atom.ToString();
    EXPECT_DOUBLE_EQ(explanation->because_trace[a].info_gain,
                     value_trace[a].info_gain);
    EXPECT_DOUBLE_EQ(explanation->because_trace[a].score,
                     value_trace[a].score);
  }

  // The despite generator must agree the same way.
  auto despite = engine.GenerateDespite(*prepared, 2);
  ASSERT_TRUE(despite.ok());
  const std::vector<ExplanationAtom> despite_trace = explainer.GenerateClause(
      value_examples.value(), 2, /*target_expected=*/true,
      explainer.ExcludedRawFeatures(bound), bound.despite.atoms());
  ASSERT_EQ(despite->atoms().size(), despite_trace.size());
  for (std::size_t a = 0; a < despite_trace.size(); ++a) {
    EXPECT_EQ(despite->atoms()[a], despite_trace[a].atom);
  }
}

TEST(ColumnarEquivalenceTest, ExplanationsInvariantUnderThreadCount) {
  const ExecutionLog log = CausalLog(50, 17);
  Query query = GtVsSimQuery();
  PairSchema schema(log.schema());
  Query bound = query;
  ASSERT_TRUE(bound.Bind(schema).ok());
  auto poi = FindPairOfInterest(log, schema, bound, PairFeatureOptions{});
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

  // Reference evaluation via the legacy lazy path.
  ExplanationMetrics expected;
  ForEachOrderedPair(
      log, schema, options,
      [&](std::size_t, std::size_t, const PairFeatureView& view) {
        const PairLabel label = ClassifyPair(query, view);
        if (label == PairLabel::kUnrelated) return true;
        if (!explanation.despite.Eval(view)) return true;
        ++expected.pairs_despite;
        if (label == PairLabel::kExpected) ++expected.pairs_despite_exp;
        if (explanation.because.Eval(view)) {
          ++expected.pairs_because;
          if (label == PairLabel::kObserved) ++expected.pairs_because_obs;
        }
        return true;
      });

  const ExplanationMetrics actual =
      EvaluateExplanation(log, schema, query, explanation, options);
  EXPECT_EQ(actual.pairs_despite, expected.pairs_despite);
  EXPECT_EQ(actual.pairs_despite_exp, expected.pairs_despite_exp);
  EXPECT_EQ(actual.pairs_because, expected.pairs_because);
  EXPECT_EQ(actual.pairs_because_obs, expected.pairs_because_obs);
}

}  // namespace
}  // namespace perfxplain
