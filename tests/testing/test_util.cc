#include "testing/test_util.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "pxql/parser.h"

namespace perfxplain::testing {

namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

Schema TinySchema() {
  Schema schema;
  PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("duration", ValueKind::kNumeric).ok());
  return schema;
}

ExecutionRecord TinyRecord(const std::string& id, double x,
                           const std::string& color, double duration) {
  return ExecutionRecord(
      id, {Value::Number(x), Value::Nominal(color), Value::Number(duration)});
}

ExecutionLog CausalLog(std::size_t n, std::uint64_t seed) {
  Schema schema;
  PX_CHECK(schema.Add("cause", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("decoy_n", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("decoy_c", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("duration", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const double causes[] = {1.0, 2.0, 4.0, 8.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double cause = causes[rng.UniformInt(0, 3)];
    const double decoy = rng.Uniform(0.0, 100.0);
    const std::string color = rng.Bernoulli(0.5) ? "red" : "blue";
    // Duration fully determined by `cause` plus 2% noise.
    const double duration =
        100.0 * cause * rng.ClampedGaussian(1.0, 0.02, 0.9, 1.1);
    PX_CHECK(log.Add(ExecutionRecord(
                         StrFormat("r%03zu", i),
                         {Value::Number(cause), Value::Number(decoy),
                          Value::Nominal(color), Value::Number(duration)}))
                 .ok());
  }
  return log;
}

ExecutionLog AdversarialLog(const AdversarialLogSpec& spec) {
  Schema schema;
  PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("y", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("duration", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(spec.seed);
  const char* colors[] = {"red", "blue", "re,d"};
  for (std::size_t i = 0; i < spec.rows; ++i) {
    std::vector<Value> values;
    values.push_back(rng.Bernoulli(0.15)
                         ? Value::Missing()
                         : Value::Number(rng.UniformInt(0, 3)));
    if (spec.giant_dictionary) {
      values.push_back(Value::Nominal(StrFormat("word%05zu", i)));
    } else {
      values.push_back(rng.Bernoulli(0.15)
                           ? Value::Missing()
                           : Value::Nominal(colors[rng.UniformInt(0, 2)]));
    }
    if (spec.all_missing_column) {
      values.push_back(Value::Missing());
    } else {
      double y = rng.Uniform(0.0, 10.0);
      if (rng.Bernoulli(0.1)) y = 0.0;
      if (rng.Bernoulli(0.05)) y = std::nan("");
      values.push_back(Value::Number(y));
    }
    values.push_back(rng.Bernoulli(0.1)
                         ? Value::Missing()
                         : Value::Number(rng.Uniform(50.0, 200.0)));
    const std::string id = StrFormat("r%03zu", i);
    PX_CHECK(log.Add(ExecutionRecord(id, values)).ok());
    if (spec.duplicated_rows) {
      // A literally duplicate execution id must be rejected ...
      PX_CHECK(!log.Add(ExecutionRecord(id, values)).ok());
      // ... so the duplicate VALUES ride under a fresh id instead.
      PX_CHECK(
          log.Add(ExecutionRecord(StrFormat("d%03zu", i), values)).ok());
    }
  }
  return log;
}

std::vector<AdversarialLogSpec> AdversarialLogSpecs() {
  std::vector<AdversarialLogSpec> specs;
  AdversarialLogSpec baseline;
  baseline.name = "baseline";
  specs.push_back(baseline);
  AdversarialLogSpec duplicated = baseline;
  duplicated.name = "duplicate-rows";
  duplicated.duplicated_rows = true;
  duplicated.rows = 12;  // doubled by the builder
  specs.push_back(duplicated);
  AdversarialLogSpec missing = baseline;
  missing.name = "all-missing-column";
  missing.all_missing_column = true;
  specs.push_back(missing);
  AdversarialLogSpec single = baseline;
  single.name = "single-row";
  single.rows = 1;
  specs.push_back(single);
  AdversarialLogSpec giant = baseline;
  giant.name = "giant-dictionary";
  giant.giant_dictionary = true;
  specs.push_back(giant);
  return specs;
}

Query GtVsSimQuery(const std::string& despite_text) {
  std::string text;
  if (!despite_text.empty()) {
    text += "DESPITE " + despite_text + " ";
  }
  text += "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM";
  auto query = ParseQuery(text);
  PX_CHECK(query.ok()) << query.status().ToString();
  return std::move(query).value();
}

bool PickPair(const ExecutionLog& log, Query& query, std::size_t skip) {
  auto poi = reference::FindPairOfInterest(log, query, skip);
  if (!poi.ok()) return false;
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;
  return true;
}

Result<Explanation> PrepareAndExplain(const Engine& engine,
                                      const Query& query,
                                      const ExplainRequest& request) {
  auto prepared = engine.Prepare(query);
  if (!prepared.ok()) return prepared.status();
  auto response = engine.Explain(*prepared, request);
  if (!response.ok()) return response.status();
  return std::move(response).value().explanation;
}

Predicate MustPredicate(const std::string& text) {
  auto predicate = ParsePredicate(text);
  PX_CHECK(predicate.ok()) << predicate.status().ToString();
  return std::move(predicate).value();
}

void ExpectSameExplanation(const Result<Explanation>& actual,
                           const Result<Explanation>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok()) << context;
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << context;
    return;
  }
  ASSERT_EQ(actual->because, expected->because) << context;
  ASSERT_EQ(actual->because_trace.size(), expected->because_trace.size());
  for (std::size_t a = 0; a < expected->because_trace.size(); ++a) {
    EXPECT_EQ(actual->because_trace[a].atom, expected->because_trace[a].atom)
        << context << " atom " << a;
    EXPECT_EQ(Bits(actual->because_trace[a].score),
              Bits(expected->because_trace[a].score))
        << context << " atom " << a;
  }
}

void ExpectMatchesReference(const Result<Explanation>& actual,
                            const Result<reference::Clause>& expected,
                            const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok())
      << context << ": "
      << (actual.ok() ? expected.status().ToString()
                      : actual.status().ToString());
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << context;
    return;
  }
  const std::vector<ExplanationAtom>& trace = actual->because_trace;
  ASSERT_EQ(trace.size(), expected->size())
      << context << ": " << actual->because.ToString();
  ASSERT_EQ(actual->because.atoms().size(), trace.size()) << context;
  for (std::size_t a = 0; a < trace.size(); ++a) {
    const reference::Step& want = (*expected)[a];
    const std::string where = context + " atom " + std::to_string(a);
    EXPECT_EQ(actual->because.atoms()[a], trace[a].atom) << where;
    EXPECT_EQ(trace[a].atom, want.atom) << where;
    EXPECT_EQ(trace[a].atom.ToString(), want.atom.ToString()) << where;
    EXPECT_EQ(Bits(trace[a].info_gain), Bits(want.info_gain)) << where;
    EXPECT_EQ(Bits(trace[a].score), Bits(want.score)) << where;
    EXPECT_EQ(Bits(trace[a].metric_after), Bits(want.metric_after)) << where;
    EXPECT_EQ(Bits(trace[a].generality_after), Bits(want.generality_after))
        << where;
  }
}

}  // namespace perfxplain::testing
