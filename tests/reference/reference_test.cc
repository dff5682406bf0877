// Known answers for the reference, worked out by hand from the paper, so
// that the oracle of the equivalence suites is not checked only against
// the engine it judges.

#include "reference/reference.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pxql/parser.h"

namespace perfxplain::reference {
namespace {

/// x numeric, c nominal.
Schema TwoFeatureSchema() {
  Schema schema;
  EXPECT_TRUE(schema.Add("x", ValueKind::kNumeric).ok());
  EXPECT_TRUE(schema.Add("c", ValueKind::kNominal).ok());
  return schema;
}

ExecutionRecord Record(Value x, Value c) {
  return ExecutionRecord("r", {std::move(x), std::move(c)});
}

/// Table 1 feature `name` of the ordered pair (a, b).
Value FeatureOf(const ExecutionRecord& a, const ExecutionRecord& b,
                const std::string& name) {
  const Schema schema = TwoFeatureSchema();
  const std::vector<std::string> names = PairFeatureNames(schema);
  for (std::size_t f = 0; f < names.size(); ++f) {
    if (names[f] == name) return PairVector(schema, a, b)[f];
  }
  ADD_FAILURE() << "no feature " << name;
  return Value::Missing();
}

const Value kT = Value::Nominal("T");
const Value kF = Value::Nominal("F");

TEST(ReferenceTest, Table1LayoutAndNames) {
  EXPECT_EQ(PairFeatureNames(TwoFeatureSchema()),
            (std::vector<std::string>{"x_isSame", "c_isSame", "x_compare",
                                      "c_compare", "x_diff", "c_diff", "x",
                                      "c"}));
}

TEST(ReferenceTest, Table1NumbersAtTheSimilarityEdge) {
  // Footnote 1: within 10% of the larger magnitude. |90 - 100| = 10 is
  // exactly 10% of 100, so similar; 89 is not.
  const auto at_edge = Record(Value::Number(90), Value::Nominal("u"));
  const auto past = Record(Value::Number(89), Value::Nominal("u"));
  const auto hundred = Record(Value::Number(100), Value::Nominal("u"));
  EXPECT_EQ(FeatureOf(at_edge, hundred, "x_isSame"), kT);
  EXPECT_EQ(FeatureOf(at_edge, hundred, "x_compare"), Value::Nominal("SIM"));
  EXPECT_EQ(FeatureOf(past, hundred, "x_isSame"), kF);
  EXPECT_EQ(FeatureOf(past, hundred, "x_compare"), Value::Nominal("LT"));
  EXPECT_EQ(FeatureOf(hundred, past, "x_compare"), Value::Nominal("GT"));
  // Base features need exact agreement, and diff is nominal-only.
  EXPECT_TRUE(FeatureOf(at_edge, hundred, "x").is_missing());
  EXPECT_EQ(FeatureOf(hundred, hundred, "x"), Value::Number(100));
  EXPECT_TRUE(FeatureOf(at_edge, hundred, "x_diff").is_missing());
}

TEST(ReferenceTest, Table1SignedZerosMissingAndNaN) {
  const auto plus = Record(Value::Number(0.0), Value::Missing());
  const auto minus = Record(Value::Number(-0.0), Value::Missing());
  // +0 and -0 are equal: the same, similar, and a base value that keeps
  // the first execution's sign.
  EXPECT_EQ(FeatureOf(minus, plus, "x_isSame"), kT);
  EXPECT_EQ(FeatureOf(minus, plus, "x_compare"), Value::Nominal("SIM"));
  EXPECT_TRUE(std::signbit(FeatureOf(minus, plus, "x").number()));
  EXPECT_FALSE(std::signbit(FeatureOf(plus, minus, "x").number()));
  // A missing input leaves every feature of its raw feature missing.
  EXPECT_TRUE(FeatureOf(plus, minus, "c_isSame").is_missing());
  EXPECT_TRUE(FeatureOf(plus, minus, "c_diff").is_missing());
  EXPECT_TRUE(FeatureOf(plus, minus, "c").is_missing());
  // NaN is data: similar to nothing (itself included), never below, and
  // never a base value.
  const auto nan = Record(Value::Number(std::nan("")), Value::Missing());
  EXPECT_EQ(FeatureOf(nan, nan, "x_isSame"), kF);
  EXPECT_EQ(FeatureOf(nan, plus, "x_compare"), Value::Nominal("GT"));
  EXPECT_EQ(FeatureOf(plus, nan, "x_compare"), Value::Nominal("GT"));
  EXPECT_TRUE(FeatureOf(nan, nan, "x").is_missing());
}

TEST(ReferenceTest, Table1Nominals) {
  const auto u = Record(Value::Number(1), Value::Nominal("u"));
  const auto v = Record(Value::Number(1), Value::Nominal("v"));
  const auto comma = Record(Value::Number(1), Value::Nominal("u,v"));
  EXPECT_EQ(FeatureOf(u, u, "c_isSame"), kT);
  EXPECT_EQ(FeatureOf(u, v, "c_isSame"), kF);
  EXPECT_TRUE(FeatureOf(u, v, "c_compare").is_missing());
  EXPECT_EQ(FeatureOf(u, v, "c_diff"), Value::Nominal("(u,v)"));
  EXPECT_EQ(FeatureOf(comma, v, "c_diff"), Value::Nominal("(u,v,v)"));
  EXPECT_EQ(FeatureOf(u, u, "c"), Value::Nominal("u"));
  EXPECT_TRUE(FeatureOf(u, v, "c").is_missing());
}

TEST(ReferenceTest, RelatednessAndPairOfInterest) {
  Schema schema = TwoFeatureSchema();
  ExecutionLog log(schema);
  for (double x : {10.0, 10.5, 30.0}) {
    const std::string id = "r" + std::to_string(log.size());
    ASSERT_TRUE(
        log.Add(ExecutionRecord(id, {Value::Number(x), Value::Nominal("u")}))
            .ok());
  }
  const Query query =
      ParseQuery("OBSERVED x_compare = GT EXPECTED x_compare = SIM").value();
  // Row-major: (0,1) SIM, (1,0) SIM, (2,0) GT, (2,1) GT; (0,2), (1,2) are
  // LT, so unrelated.
  const std::vector<Example> related = RelatedPairs(log, query);
  ASSERT_EQ(related.size(), 4u);
  EXPECT_FALSE(related[0].observed);
  EXPECT_EQ(related[2].first, 2u);
  EXPECT_TRUE(related[2].observed);
  EXPECT_EQ(FindPairOfInterest(log, query, 1).value(),
            std::make_pair(std::size_t{2}, std::size_t{1}));
  EXPECT_FALSE(FindPairOfInterest(log, query, 2).ok());
}

TEST(ReferenceTest, OneGreedyStepOnSixPairs) {
  // Raw features m, h and k; level 1 searches only their isSame features.
  // The six pairs (pair of interest first):
  //          m_isSame h_isSame k_isSame label
  //   poi    T        T        T        observed
  //   1      T        F        T        observed
  //   2      T        T        T        observed
  //   3      F        T        F        expected
  //   4      F        T        F        expected
  //   5      T        T        T        expected
  // Each feature's only candidate is `= T` (the pair's value):
  //   m, k: 4 of 6 pairs, 3 observed: gain 1 - 4/6 H(3/4) = 0.4591,
  //         precision 3/4, generality 4/6;
  //   h:    5 of 6 pairs, 2 observed: gain 1 - 5/6 H(2/5) = 0.1909,
  //         precision 2/5, generality 5/6.
  // Percentile ranks: precision 2/3 (m, k) and 1/6 (h); generality 1/3
  // (m, k) and 5/6 (h). Scores 0.8 * 2/3 + 0.2 * 1/3 = 0.6 (m, k) and
  // 0.8 * 1/6 + 0.2 * 5/6 = 0.3 (h). m and k tie on score, precision and
  // gain; the earlier feature, m, wins. Four pairs remain, three observed.
  Schema schema;
  for (const char* name : {"m", "h", "k"}) {
    ASSERT_TRUE(schema.Add(name, ValueKind::kNominal).ok());
  }
  const bool rows[6][4] = {{1, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 1, 1},
                           {0, 1, 0, 0}, {0, 1, 0, 0}, {1, 1, 1, 0}};
  std::vector<Example> examples;
  for (const auto& row : rows) {
    Example example;
    example.observed = row[3];
    example.features.assign(12, Value::Missing());
    for (std::size_t f = 0; f < 3; ++f) example.features[f] = row[f] ? kT : kF;
    examples.push_back(example);
  }
  ClauseOptions options;
  options.width = 1;
  options.level = 1;
  const Clause clause = GrowClause(schema, examples, options);
  ASSERT_EQ(clause.size(), 1u);
  EXPECT_EQ(clause[0].atom.ToString(), "m_isSame = T");
  EXPECT_NEAR(clause[0].info_gain,
              1.0 - 4.0 / 6.0 * (0.75 * std::log2(4.0 / 3.0) + 0.5), 1e-12);
  EXPECT_NEAR(clause[0].score, 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(clause[0].metric_after, 0.75);
  EXPECT_DOUBLE_EQ(clause[0].generality_after, 4.0 / 6.0);

  // Relevance (des') counts the expected pairs instead: m and k hold 1 of
  // 4, h 3 of 5, and h wins on both ranks.
  options.target_expected = true;
  const Clause despite = GrowClause(schema, examples, options);
  ASSERT_EQ(despite.size(), 1u);
  EXPECT_EQ(despite[0].atom.ToString(), "h_isSame = T");
  EXPECT_DOUBLE_EQ(despite[0].metric_after, 3.0 / 5.0);
}

TEST(ReferenceTest, ThresholdSearchPrefersTheEarlierOnEqualGain) {
  // Values 1 2 5 6, the pair of interest at 1. Thresholds: 1, the
  // midpoints 1.5, 3.5 and 5.5, and 6.
  const std::vector<Value> values = {Value::Number(1), Value::Number(2),
                                     Value::Number(5), Value::Number(6)};
  // Only the first is positive: x = 1, x <= 1 and x <= 1.5 all split it
  // off perfectly (gain H(1/4)); equality comes first and keeps the win.
  auto best = BestPredicate("x", values, {true, false, false, false},
                            Value::Number(1), 1);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->atom.ToString(), "x = 1");
  EXPECT_NEAR(best->gain, 0.25 * 2 + 0.75 * std::log2(4.0 / 3.0), 1e-12);
  // The first two positive: only x <= 3.5, the midpoint between the
  // classes, splits them off, with a full bit of gain.
  best = BestPredicate("x", values, {true, true, false, false},
                       Value::Number(1), 1);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->atom.ToString(), "x <= 3.5");
  EXPECT_DOUBLE_EQ(best->gain, 1.0);
  EXPECT_EQ(best->in_total, 2u);
}

TEST(ReferenceTest, RRelieffOnFourRows) {
  //   row  a   b  t
  //   0    0   x  0
  //   1    0   y  20
  //   2    10  x  0
  //   3    10  y  20
  // With one neighbor, each row's nearest (ties to the lower row) is at
  // distance 1: 0 -> 1, 1 -> 0, 2 -> 0, 3 -> 1. The target differs on the
  // first two probes only, b on those same two, a on the other two:
  //   N_dC = 2, N_dA = 2 for both, N_dC&dA = 0 for a and 2 for b, m = 4;
  //   W = N_dC&dA / N_dC - (N_dA - N_dC&dA) / (m - N_dC):
  //   W[a] = 0 - 2/2 = -1 and W[b] = 1 - 0 = 1.
  Schema schema;
  ASSERT_TRUE(schema.Add("a", ValueKind::kNumeric).ok());
  ASSERT_TRUE(schema.Add("b", ValueKind::kNominal).ok());
  ASSERT_TRUE(schema.Add("t", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  const double a[] = {0, 0, 10, 10};
  const char* b[] = {"x", "y", "x", "y"};
  const double t[] = {0, 20, 0, 20};
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(log.Add(ExecutionRecord("r" + std::to_string(r),
                                        {Value::Number(a[r]),
                                         Value::Nominal(b[r]),
                                         Value::Number(t[r])}))
                    .ok());
  }
  Rng rng(3);
  const std::vector<double> weights = RRelieff(log, 2, 4, 1, rng);
  EXPECT_EQ(weights, (std::vector<double>{-1.0, 1.0, 0.0}));
  EXPECT_EQ(RankByWeight(weights, 2), (std::vector<std::size_t>{1, 0}));
}

}  // namespace
}  // namespace perfxplain::reference
