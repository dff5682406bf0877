// Randomized equivalence of clause growth: the Value oracle
// (Explainer::GenerateClause over materialized examples) against the
// encoded search (row bitmaps, presorted numeric walks, carried counts) on
// small logs built to hit every corner of the encodings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/explainer.h"
#include "features/pair_features.h"
#include "ml/split.h"

namespace perfxplain {
namespace {

constexpr double kSimFraction = 0.10;

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// A numeric cell drawn from `pool` (ties guaranteed), or missing or NaN.
Value NumericCell(Rng& rng, const std::vector<double>& pool) {
  if (rng.Bernoulli(0.12)) return Value::Missing();
  if (rng.Bernoulli(0.05)) return Value::Number(std::nan(""));
  return Value::Number(
      pool[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(pool.size()) - 1))]);
}

/// A log whose numeric columns mix ties, negatives, -0.0 beside +0.0,
/// missing cells and NaN, and whose nominal column holds values with
/// commas: the diffs (a,b | c) and (a | b,c) both render "(a,b,c)".
ExecutionLog RandomLog(Rng& rng, std::size_t n) {
  Schema schema;
  PX_CHECK(schema.Add("a", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("b", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("c", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("d", ValueKind::kNominal).ok());
  ExecutionLog log(schema);
  const std::vector<double> a_pool = {-2, -1, -0.0, 0.0, 1, 2};
  const std::vector<double> b_pool = {-1.5, -0.0, 0.0, 0.25, 0.5, 4};
  const char* c_pool[] = {"a", "a,b", "b", "b,c", "c"};
  const char* d_pool[] = {"x", "y"};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.push_back(NumericCell(rng, a_pool));
    values.push_back(NumericCell(rng, b_pool));
    values.push_back(rng.Bernoulli(0.1)
                         ? Value::Missing()
                         : Value::Nominal(c_pool[rng.UniformInt(0, 4)]));
    values.push_back(Value::Nominal(d_pool[rng.UniformInt(0, 1)]));
    PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%03zu", i),
                                     std::move(values)))
                 .ok());
  }
  return log;
}

/// Random ordered pairs with random labels; pair 0 is the pair of interest.
std::vector<PairRef> RandomPairs(Rng& rng, std::size_t rows, std::size_t m) {
  std::vector<PairRef> pairs;
  while (pairs.size() < m) {
    const auto i = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(rows) - 1));
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(rows) - 1));
    if (i == j) continue;
    pairs.push_back({i, j, rng.Bernoulli(0.5)});
  }
  return pairs;
}

std::vector<TrainingExample> Materialize(const ExecutionLog& log,
                                         const PairSchema& schema,
                                         const std::vector<PairRef>& pairs) {
  PairFeatureOptions options;
  options.sim_fraction = kSimFraction;
  std::vector<TrainingExample> examples;
  for (const PairRef& pair : pairs) {
    PairFeatureView view(&schema, &log.at(pair.first), &log.at(pair.second),
                         &options);
    TrainingExample example;
    example.first = pair.first;
    example.second = pair.second;
    example.observed = pair.observed;
    example.features = view.Materialize();
    examples.push_back(std::move(example));
  }
  return examples;
}

RowBitmap Bitmap(std::size_t rows, const std::vector<std::size_t>& members) {
  RowBitmap bitmap((rows + 63) / 64, 0);
  for (std::size_t r : members) bitmap[r >> 6] |= std::uint64_t{1} << (r & 63);
  return bitmap;
}

TEST(ClauseGrowthEquivalenceTest, EncodedTraceMatchesValueOracleBitwise) {
  constexpr int kRounds = 64;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(1000 + static_cast<std::uint64_t>(round));
    const ExecutionLog log =
        RandomLog(rng, static_cast<std::size_t>(rng.UniformInt(6, 40)));
    const ColumnarLog columns(log);
    ExplainerOptions options;
    options.pair.sim_fraction = kSimFraction;
    options.normalize_scores = round % 3 != 0;
    const Explainer explainer(&log, options, &columns);
    const PairSchema& schema = explainer.pair_schema();
    const std::vector<PairRef> pairs = RandomPairs(
        rng, log.size(), static_cast<std::size_t>(rng.UniformInt(8, 120)));
    const EncodedDataset dataset(columns, schema, pairs, kSimFraction);
    const std::vector<TrainingExample> examples =
        Materialize(log, schema, pairs);

    const std::size_t width = 1 + static_cast<std::size_t>(round % 4);
    const bool target_expected = (round / 4) % 2 == 1;
    std::vector<std::size_t> excluded;
    for (std::size_t raw = 0; raw < schema.raw_size(); ++raw) {
      if (rng.Bernoulli(0.2)) excluded.push_back(raw);
    }
    std::vector<Atom> redundant;
    if (round % 2 == 0) {
      redundant.push_back(Atom::Bound(
          schema, schema.IndexOf(PairFeatureKind::kIsSame, 3), CompareOp::kEq,
          Value::Nominal("T")));
    }

    const std::string context =
        StrFormat("round %d (width %zu, target_expected %d)", round, width,
                  target_expected ? 1 : 0);
    const std::vector<ExplanationAtom> expected = explainer.GenerateClause(
        examples, width, target_expected, excluded, redundant);
    const std::vector<ExplanationAtom> actual =
        explainer.GenerateClauseEncoded(dataset, width, target_expected,
                                        excluded, redundant, options);
    ASSERT_EQ(actual.size(), expected.size()) << context;
    for (std::size_t a = 0; a < expected.size(); ++a) {
      // ToString tells -0 from 0, which Value equality does not.
      EXPECT_EQ(actual[a].atom.ToString(), expected[a].atom.ToString())
          << context << " atom " << a;
      EXPECT_EQ(actual[a].atom, expected[a].atom) << context;
      EXPECT_EQ(Bits(actual[a].info_gain), Bits(expected[a].info_gain))
          << context << " atom " << a;
      EXPECT_EQ(Bits(actual[a].metric_after), Bits(expected[a].metric_after))
          << context << " atom " << a;
      EXPECT_EQ(Bits(actual[a].generality_after),
                Bits(expected[a].generality_after))
          << context << " atom " << a;
      EXPECT_EQ(Bits(actual[a].score), Bits(expected[a].score))
          << context << " atom " << a;
    }
  }
}

TEST(ClauseGrowthEquivalenceTest, CarriedCountsEqualAnAtomEvalRecount) {
  constexpr int kRounds = 64;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(5000 + static_cast<std::uint64_t>(round));
    const ExecutionLog log =
        RandomLog(rng, static_cast<std::size_t>(rng.UniformInt(6, 40)));
    const ColumnarLog columns(log);
    const PairSchema schema(log.schema());
    const std::vector<PairRef> pairs = RandomPairs(
        rng, log.size(), static_cast<std::size_t>(rng.UniformInt(8, 120)));
    const EncodedDataset dataset(columns, schema, pairs, kSimFraction);
    const std::vector<TrainingExample> examples =
        Materialize(log, schema, pairs);
    // One index serves every working set of the dataset, as it does every
    // step of a clause.
    EncodedSplitIndex index(dataset);
    for (int subset = 0; subset < 3; ++subset) {
      const bool flip = rng.Bernoulli(0.5);
      std::vector<std::size_t> members = {0};
      std::vector<std::size_t> positives;
      std::vector<TrainingExample> working = {examples[0]};
      for (std::size_t r = 1; r < examples.size(); ++r) {
        if (subset == 0 || rng.Bernoulli(0.5)) {
          members.push_back(r);
          working.push_back(examples[r]);
        }
      }
      for (std::size_t r = 0; r < examples.size(); ++r) {
        if (examples[r].observed != flip) positives.push_back(r);
      }
      for (TrainingExample& example : working) {
        example.observed = example.observed != flip;
      }
      SplitOptions split_options;
      split_options.min_support = 1 + static_cast<std::size_t>(subset);
      for (std::size_t f = 0; f < schema.size(); ++f) {
        const std::string context = StrFormat(
            "round %d subset %d feature %s", round, subset,
            schema.NameOf(f).c_str());
        const auto expected = BestPredicateForFeature(
            schema, working, f, examples[0].features[f], split_options);
        const auto actual = BestPredicateForFeatureEncoded(
            index,
            EncodedWorkingSet(Bitmap(dataset.rows(), members),
                              Bitmap(dataset.rows(), positives)),
            f, split_options);
        ASSERT_EQ(actual.has_value(), expected.has_value()) << context;
        if (!expected.has_value()) continue;
        EXPECT_EQ(actual->atom.ToString(), expected->atom.ToString())
            << context;
        EXPECT_EQ(Bits(actual->gain), Bits(expected->gain)) << context;
        EXPECT_EQ(actual->in_total, expected->in_total) << context;
        EXPECT_EQ(actual->in_positive, expected->in_positive) << context;
        std::size_t in_total = 0;
        std::size_t in_positive = 0;
        for (const TrainingExample& example : working) {
          if (!actual->atom.Eval(example.features)) continue;
          ++in_total;
          if (example.observed) ++in_positive;
        }
        EXPECT_EQ(actual->in_total, in_total) << context;
        EXPECT_EQ(actual->in_positive, in_positive) << context;
      }
    }
  }
}

}  // namespace
}  // namespace perfxplain
