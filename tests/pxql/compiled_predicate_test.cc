#include "pxql/compiled_predicate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/random.h"
#include "common/string_util.h"
#include "core/pair_enumeration.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::MustPredicate;

/// Asserts that the compiled program agrees with the reference's
/// evaluation on every ordered pair of the log.
void ExpectCompiledMatchesLegacy(const ExecutionLog& log,
                                 const Predicate& predicate) {
  const PairSchema schema(log.schema());
  Predicate bound = predicate;
  // Atoms that fail Bind (e.g. unknown features) are out of scope here.
  ASSERT_TRUE(bound.Bind(schema).ok()) << bound.ToString();
  const ColumnarLog columns(log);
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(bound, schema, columns);
  const PairFeatureOptions options;
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (std::size_t j = 0; j < log.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(compiled.Eval(i, j, options.sim_fraction),
                reference::Holds(bound, log.schema(), log.at(i), log.at(j)))
          << bound.ToString() << " on pair (" << i << "," << j << ")";
    }
  }
}

class CompiledPredicateTest : public ::testing::Test {
 protected:
  CompiledPredicateTest() : log_(MakeLog()) {}

  static ExecutionLog MakeLog() {
    Schema schema;
    PX_CHECK(schema.Add("num", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
    ExecutionLog log(schema);
    std::size_t next = 0;
    auto add = [&](Value num, Value color) {
      PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%02zu", next++),
                                       {std::move(num), std::move(color)}))
                   .ok());
    };
    add(Value::Number(1.0), Value::Nominal("a"));
    add(Value::Number(1.05), Value::Nominal("b"));
    add(Value::Number(2.0), Value::Nominal("b,c"));
    add(Value::Number(0.0), Value::Nominal("a,b"));
    add(Value::Number(-0.0), Value::Nominal("c"));
    add(Value::Number(std::nan("")), Value::Nominal("a"));
    add(Value::Missing(), Value::Missing());
    add(Value::Number(2.0), Value::Missing());
    return log;
  }

  ExecutionLog log_;
};

TEST_F(CompiledPredicateTest, CategoricalAtoms) {
  for (const char* text :
       {"num_isSame = T", "num_isSame = F", "num_isSame != T",
        "num_isSame != F", "color_isSame = T", "color_isSame != F",
        "num_compare = LT", "num_compare = SIM", "num_compare = GT",
        "num_compare != SIM"}) {
    ExpectCompiledMatchesLegacy(log_, MustPredicate(text));
  }
}

TEST_F(CompiledPredicateTest, ConstantsOutsideTheCategoricalDomain) {
  // "X" can never be produced by an isSame/compare feature: = matches
  // nothing, != matches every pair where the feature is defined.
  for (const char* text :
       {"num_isSame = X", "num_isSame != X", "num_compare = X",
        "num_compare != X"}) {
    ExpectCompiledMatchesLegacy(log_, MustPredicate(text));
  }
}

TEST_F(CompiledPredicateTest, DiffAtomsIncludingAmbiguousCommas) {
  // "(a,b)" is unambiguous; "(a,b,c)" parses as both ("a","b,c") and
  // ("a,b","c"), and the string-equality semantics of the Value path must
  // be preserved for both encodings.
  for (const char* text :
       {"color_diff = (a,b)", "color_diff != (a,b)", "color_diff = (a,b,c)",
        "color_diff != (a,b,c)", "color_diff = (zz,yy)",
        "color_diff != (zz,yy)", "color_diff = nonsense"}) {
    ExpectCompiledMatchesLegacy(log_, MustPredicate(text));
  }
}

TEST_F(CompiledPredicateTest, BaseAtoms) {
  for (const char* text :
       {"num = 2", "num != 2", "num <= 1.5", "num >= 1.5", "num < 2",
        "num > 0", "num = 0", "color = a", "color != a", "color = zz",
        "color != zz"}) {
    ExpectCompiledMatchesLegacy(log_, MustPredicate(text));
  }
  // Constants containing commas cannot be written in PXQL text; build the
  // atom directly.
  ExpectCompiledMatchesLegacy(
      log_, Predicate({Atom("color", CompareOp::kEq,
                            Value::Nominal("a,b"))}));
  ExpectCompiledMatchesLegacy(
      log_, Predicate({Atom("color", CompareOp::kNe,
                            Value::Nominal("a,b"))}));
}

TEST_F(CompiledPredicateTest, ConjunctionsShortCircuitIdentically) {
  ExpectCompiledMatchesLegacy(
      log_, MustPredicate("num_isSame = T AND color_isSame = F"));
  ExpectCompiledMatchesLegacy(
      log_,
      MustPredicate("num_compare = SIM AND color = a AND num >= 0"));
}

TEST_F(CompiledPredicateTest, RecordsTheCompiledAgainstLog) {
  // Programs hold raw pointers into the columns of the log they were
  // compiled for; source() exposes that log so callers can assert they
  // evaluate rows of the right one.
  const PairSchema schema(log_.schema());
  const ColumnarLog columns(log_);
  Predicate predicate = MustPredicate("num_isSame = T");
  ASSERT_TRUE(predicate.Bind(schema).ok());
  EXPECT_EQ(CompiledPredicate::Compile(predicate, schema, columns).source(),
            &columns);
}

TEST_F(CompiledPredicateTest, AlwaysFalseDetection) {
  const PairSchema schema(log_.schema());
  const ColumnarLog columns(log_);
  Predicate impossible = MustPredicate("num_isSame = X");
  ASSERT_TRUE(impossible.Bind(schema).ok());
  EXPECT_TRUE(
      CompiledPredicate::Compile(impossible, schema, columns).always_false());
  Predicate possible = MustPredicate("num_isSame = T");
  ASSERT_TRUE(possible.Bind(schema).ok());
  EXPECT_FALSE(
      CompiledPredicate::Compile(possible, schema, columns).always_false());
}

TEST_F(CompiledPredicateTest, CompiledQueryClassifiesLikeLegacy) {
  const PairSchema schema(log_.schema());
  Query query = testing::GtVsSimQuery("color_isSame = T");
  // GtVsSimQuery speaks about a "duration" feature; rebuild it over "num".
  query.despite = MustPredicate("color_isSame = T");
  query.observed = MustPredicate("num_compare = GT");
  query.expected = MustPredicate("num_compare = SIM");
  ASSERT_TRUE(query.Bind(schema).ok());
  const ColumnarLog columns(log_);
  const CompiledQuery compiled =
      CompiledQuery::Compile(query, schema, columns);
  const PairFeatureOptions options;
  for (std::size_t i = 0; i < log_.size(); ++i) {
    for (std::size_t j = 0; j < log_.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(static_cast<int>(ClassifyPairCompiled(
                    compiled, i, j, options.sim_fraction)),
                static_cast<int>(reference::Classify(
                    query, log_.schema(), log_.at(i), log_.at(j))));
    }
  }
}

TEST(CompiledPredicateRandomTest, RandomAtomsAgreeOnRandomLogs) {
  Rng rng(99);
  const char* nominal_pool[] = {"a", "b", "a,b", "b,c", "zz"};
  for (int trial = 0; trial < 20; ++trial) {
    Schema schema;
    PX_CHECK(schema.Add("n0", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("s0", ValueKind::kNominal).ok());
    PX_CHECK(schema.Add("n1", ValueKind::kNumeric).ok());
    ExecutionLog log(schema);
    for (int r = 0; r < 12; ++r) {
      std::vector<Value> values;
      for (int c = 0; c < 3; ++c) {
        if (rng.Bernoulli(0.25)) {
          values.push_back(Value::Missing());
        } else if (c == 1) {
          values.push_back(Value::Nominal(
              nominal_pool[rng.UniformInt(0, 4)]));
        } else {
          values.push_back(Value::Number(rng.UniformInt(-2, 2)));
        }
      }
      PX_CHECK(log.Add(ExecutionRecord(StrFormat("t%02d", r),
                                       std::move(values)))
                   .ok());
    }
    const char* atoms[] = {
        "n0_isSame = T",    "s0_isSame = F",     "n1_compare = GT",
        "s0_diff = (a,b)",  "s0_diff != (a,b)",  "n0 = 1",
        "n0 != 0",          "n1 <= 0",           "n1 >= 1",
        "s0 = a",           "s0 != b"};
    Predicate predicate;
    const int width = static_cast<int>(rng.UniformInt(1, 3));
    std::string text;
    for (int a = 0; a < width; ++a) {
      if (a > 0) text += " AND ";
      text += atoms[rng.UniformInt(0, 10)];
    }
    ExpectCompiledMatchesLegacy(log, MustPredicate(text));
  }
}

/// The partner list of `row`; empty when it is no candidate first row.
std::vector<std::size_t> PartnersOf(const PairSelection& selection,
                                    std::size_t row) {
  std::vector<std::size_t> partners;
  for (std::size_t s = 0; s < selection.first_count(); ++s) {
    if (selection.first_row(s) != row) continue;
    const CandidateRows list = selection.Partners(s);
    for (std::size_t k = 0; k < list.size(); ++k) {
      partners.push_back(list[k]);
    }
  }
  return partners;
}

/// Compiles `predicate` against `log` and asserts DeriveSelection at
/// fraction `f` is sound: every ordered pair the program accepts at `f`
/// has its first row in first_rows, its second row in second_rows, and
/// its second row in the first row's partner list — the walk order is
/// row-major (first rows and every partner list ascend) — and the
/// residual program agrees with the full one on every candidate pair.
void ExpectSelectionSound(const ExecutionLog& log, const Predicate& predicate,
                          double f = 0.10) {
  const PairSchema schema(log.schema());
  Predicate bound = predicate;
  ASSERT_TRUE(bound.Bind(schema).ok()) << bound.ToString();
  const ColumnarLog columns(log);
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(bound, schema, columns);
  CompiledPredicate residual;
  const PairSelection selection =
      compiled.DeriveSelection(log.size(), f, &residual);
  EXPECT_LE(residual.width(), compiled.width()) << bound.ToString();
  ForEachCandidatePair(selection, [&](std::size_t i, std::size_t j) {
    EXPECT_EQ(residual.Eval(i, j, f), compiled.Eval(i, j, f))
        << bound.ToString() << " at f = " << f << ": residual differs on ("
        << i << "," << j << ")";
    return true;
  });
  if (!selection.constrained) {
    EXPECT_EQ(residual.width(), compiled.width()) << bound.ToString();
    return;
  }
  EXPECT_TRUE(std::is_sorted(selection.first_rows.begin(),
                             selection.first_rows.end()))
      << bound.ToString();
  for (std::size_t s = 0; s < selection.first_count(); ++s) {
    const CandidateRows partners = selection.Partners(s);
    for (std::size_t k = 1; k < partners.size(); ++k) {
      EXPECT_LT(partners[k - 1], partners[k])
          << bound.ToString() << ": partner list of row "
          << selection.first_row(s) << " is not ascending";
    }
  }
  const std::set<std::uint32_t> first(selection.first_rows.begin(),
                                      selection.first_rows.end());
  const std::set<std::uint32_t> second(selection.second_rows.begin(),
                                       selection.second_rows.end());
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (std::size_t j = 0; j < log.size(); ++j) {
      if (i == j) continue;
      if (!compiled.Eval(i, j, f)) continue;
      EXPECT_TRUE(first.count(static_cast<std::uint32_t>(i)) > 0)
          << bound.ToString() << " at f = " << f << ": accepted pair (" << i
          << "," << j
          << ") pruned on the first side";
      EXPECT_TRUE(second.count(static_cast<std::uint32_t>(j)) > 0)
          << bound.ToString() << ": accepted pair (" << i << "," << j
          << ") pruned on the second side";
      const std::vector<std::size_t> partners = PartnersOf(selection, i);
      EXPECT_TRUE(std::find(partners.begin(), partners.end(), j) !=
                  partners.end())
          << bound.ToString() << ": accepted pair (" << i << "," << j
          << ") missing from row " << i << "'s partner list";
    }
  }
}

TEST_F(CompiledPredicateTest, SelectionFromBaseNominalAtom) {
  const PairSchema schema(log_.schema());
  Predicate bound = MustPredicate("color = b");
  ASSERT_TRUE(bound.Bind(schema).ok());
  const ColumnarLog columns(log_);
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(bound, schema, columns);
  const PairSelection selection = compiled.DeriveSelection(log_.size(), 0.10);
  ASSERT_TRUE(selection.constrained);
  // Exactly one record holds "b"; both sides select only it.
  EXPECT_EQ(selection.first_rows, std::vector<std::uint32_t>{1});
  EXPECT_EQ(selection.second_rows, std::vector<std::uint32_t>{1});
  ExpectSelectionSound(log_, MustPredicate("color = b"));
  ExpectSelectionSound(log_, MustPredicate("color != b"));
  ExpectSelectionSound(log_, Predicate({Atom("color", CompareOp::kNe,
                                             Value::Nominal("unseen"))}));
}

TEST_F(CompiledPredicateTest, SelectionFromBaseNumericAtom) {
  // NaN (row 5) and missing (row 6) rows must be pruned: the base feature
  // can never be present there.
  for (const char* text :
       {"num = 2", "num != 2", "num <= 1.5", "num >= 1.5", "num < 2",
        "num > 0", "num = 0"}) {
    ExpectSelectionSound(log_, MustPredicate(text));
  }
  const PairSchema schema(log_.schema());
  const ColumnarLog columns(log_);
  // NaN != 2 holds, yet a NaN row never carries a base feature.
  for (const char* text : {"num > 0", "num != 2"}) {
    Predicate bound = MustPredicate(text);
    ASSERT_TRUE(bound.Bind(schema).ok());
    const CompiledPredicate compiled =
        CompiledPredicate::Compile(bound, schema, columns);
    const PairSelection selection =
        compiled.DeriveSelection(log_.size(), 0.10);
    ASSERT_TRUE(selection.constrained) << text;
    for (const std::vector<std::uint32_t>* side :
         {&selection.first_rows, &selection.second_rows}) {
      for (std::uint32_t r : *side) {
        EXPECT_NE(r, 5u) << "NaN row passed the " << text << " column scan";
        EXPECT_NE(r, 6u) << "missing row passed the " << text
                         << " column scan";
      }
    }
  }
}

TEST_F(CompiledPredicateTest, SelectionFromDiffAtomIsAsymmetric) {
  const PairSchema schema(log_.schema());
  Predicate bound = MustPredicate("color_diff = (a,b)");
  ASSERT_TRUE(bound.Bind(schema).ok());
  const ColumnarLog columns(log_);
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(bound, schema, columns);
  const PairSelection selection = compiled.DeriveSelection(log_.size(), 0.10);
  ASSERT_TRUE(selection.constrained);
  // Rows 0 and 5 hold "a" (the left code); row 1 holds "b" (the right).
  EXPECT_EQ(selection.first_rows, (std::vector<std::uint32_t>{0, 5}));
  EXPECT_EQ(selection.second_rows, std::vector<std::uint32_t>{1});
  ExpectSelectionSound(log_, MustPredicate("color_diff = (a,b)"));
  ExpectSelectionSound(log_, MustPredicate("color_diff = (a,b,c)"));
}

TEST_F(CompiledPredicateTest, NoSelectionFromPairRelatingAtoms) {
  const PairSchema schema(log_.schema());
  const ColumnarLog columns(log_);
  // compare atoms other than SIM and diff-inequality atoms admit no
  // single-row test and no join; the first deterministic atom of a
  // conjunction is what prunes.
  for (const char* text :
       {"num_compare = GT", "num_compare != SIM", "color_diff != (a,b)",
        "num_isSame = F"}) {
    Predicate bound = MustPredicate(text);
    ASSERT_TRUE(bound.Bind(schema).ok());
    const CompiledPredicate compiled =
        CompiledPredicate::Compile(bound, schema, columns);
    EXPECT_FALSE(compiled.DeriveSelection(log_.size(), 0.10).constrained)
        << text;
  }
  // Numeric similarity atoms are band joins: at f = 0.1 the value order
  // -0.0 0.0 | 1.0 1.05 | 2.0 2.0 has three tight components, NaN (row 5)
  // and missing (row 6) lie in none, so the atoms leave the residual.
  for (const char* text :
       {"num_isSame = T", "num_isSame != F", "num_compare = SIM",
        "num_isSame = T AND num_compare = SIM"}) {
    Predicate bound = MustPredicate(text);
    ASSERT_TRUE(bound.Bind(schema).ok());
    const CompiledPredicate compiled =
        CompiledPredicate::Compile(bound, schema, columns);
    CompiledPredicate residual;
    const PairSelection selection =
        compiled.DeriveSelection(log_.size(), 0.10, &residual);
    ASSERT_TRUE(selection.partitioned()) << text;
    EXPECT_EQ(selection.first_rows,
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 7}))
        << text;
    EXPECT_EQ(PartnersOf(selection, 0), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(PartnersOf(selection, 2), (std::vector<std::size_t>{2, 7}));
    EXPECT_EQ(PartnersOf(selection, 3), (std::vector<std::size_t>{3, 4}));
    EXPECT_TRUE(PartnersOf(selection, 5).empty());
    EXPECT_EQ(residual.width(), 0u) << text;
    ExpectSelectionSound(log_, MustPredicate(text));
  }
  // A later base atom still yields the row filter.
  Predicate bound = MustPredicate("num_compare = GT AND color = a");
  ASSERT_TRUE(bound.Bind(schema).ok());
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(bound, schema, columns);
  EXPECT_TRUE(compiled.DeriveSelection(log_.size(), 0.10).constrained);
  ExpectSelectionSound(log_, MustPredicate("num_compare = GT AND color = a"));
}

TEST_F(CompiledPredicateTest, BandJoinKeepsNonTightComponentsInTheResidual) {
  // 1.0 ~ 1.09 and 1.09 ~ 1.18 at f = 0.1 chain into one component, but
  // 1.0 and 1.18 are not similar: the atom must stay per pair.
  Schema schema;
  PX_CHECK(schema.Add("num", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  for (double value : {1.18, 5.0, 1.0, 1.09}) {
    PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%zu", log.size()),
                                     {Value::Number(value)}))
                 .ok());
  }
  const PairSchema pair_schema(log.schema());
  Predicate bound = MustPredicate("num_isSame = T");
  ASSERT_TRUE(bound.Bind(pair_schema).ok());
  const ColumnarLog columns(log);
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(bound, pair_schema, columns);
  CompiledPredicate residual;
  const PairSelection selection =
      compiled.DeriveSelection(log.size(), 0.10, &residual);
  ASSERT_TRUE(selection.partitioned());
  EXPECT_EQ(selection.first_rows, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(PartnersOf(selection, 0), (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(residual.width(), 1u);
  EXPECT_FALSE(residual.Eval(0, 2, 0.10));
  ExpectSelectionSound(log, MustPredicate("num_isSame = T"));
  // At f = 0.2 the component is tight and the atom leaves the residual.
  compiled.DeriveSelection(log.size(), 0.20, &residual);
  EXPECT_EQ(residual.width(), 0u);
  ExpectSelectionSound(log, MustPredicate("num_isSame = T"), 0.20);
  // f >= 1 gives up on the band join (every pair of positive values is
  // then similar) and keeps the full program.
  for (double f : {1.0, 1.5}) {
    EXPECT_FALSE(compiled.DeriveSelection(log.size(), f, &residual)
                     .constrained);
    EXPECT_EQ(residual.width(), 1u);
  }
}

TEST_F(CompiledPredicateTest, BandJoinGivesUpOutsideTheNormalRange) {
  // inf is within any positive fraction of every finite value, so a
  // column holding ±inf admits no band cut; nor does one whose product
  // with the fraction is subnormal, where rounding is not relative.
  Schema schema;
  PX_CHECK(schema.Add("num", ValueKind::kNumeric).ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (double extreme : {inf, -inf, 1e-310}) {
    ExecutionLog log(schema);
    for (double value : {1.0, 50.0, extreme, -3.0}) {
      PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%zu", log.size()),
                                       {Value::Number(value)}))
                   .ok());
    }
    const PairSchema pair_schema(log.schema());
    Predicate bound = MustPredicate("num_compare = SIM");
    ASSERT_TRUE(bound.Bind(pair_schema).ok());
    const ColumnarLog columns(log);
    const CompiledPredicate compiled =
        CompiledPredicate::Compile(bound, pair_schema, columns);
    CompiledPredicate residual;
    EXPECT_FALSE(compiled.DeriveSelection(log.size(), 0.10, &residual)
                     .constrained);
    EXPECT_EQ(residual.width(), 1u);
    for (double f : {0.0, 0.1, 0.5}) {
      ExpectSelectionSound(log, MustPredicate("num_compare = SIM"), f);
    }
  }
}

TEST_F(CompiledPredicateTest, SelectionPartitionsOnNominalIsSame) {
  const PairSchema schema(log_.schema());
  const ColumnarLog columns(log_);
  // Only rows 0 and 5 share a code ("a"); the missing rows 6-7 and the
  // singleton codes get no partners.
  for (const char* text : {"color_isSame = T", "color_isSame != F"}) {
    Predicate bound = MustPredicate(text);
    ASSERT_TRUE(bound.Bind(schema).ok());
    const CompiledPredicate compiled =
        CompiledPredicate::Compile(bound, schema, columns);
    const PairSelection selection = compiled.DeriveSelection(log_.size(), 0.10);
    ASSERT_TRUE(selection.constrained) << text;
    ASSERT_TRUE(selection.partitioned()) << text;
    EXPECT_EQ(selection.first_rows, (std::vector<std::uint32_t>{0, 5}));
    EXPECT_EQ(selection.second_rows, (std::vector<std::uint32_t>{0, 5}));
    for (std::size_t row : {0, 5}) {
      EXPECT_EQ(PartnersOf(selection, row),
                (std::vector<std::size_t>{0, 5}))
          << text;
    }
    EXPECT_TRUE(PartnersOf(selection, 1).empty());
    EXPECT_TRUE(PartnersOf(selection, 6).empty());
    ExpectSelectionSound(log_, MustPredicate(text));
  }
  // A base row filter composes with the partition: "color != a" leaves
  // no shared code, so nothing survives.
  Predicate bound = MustPredicate("color_isSame = T AND color != a");
  ASSERT_TRUE(bound.Bind(schema).ok());
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(bound, schema, columns);
  const PairSelection selection = compiled.DeriveSelection(log_.size(), 0.10);
  EXPECT_TRUE(selection.constrained);
  EXPECT_EQ(selection.first_count(), 0u);
  // isSame = F and numeric isSame are no equi-joins.
  for (const char* text : {"color_isSame = F", "color_isSame != T"}) {
    Predicate other = MustPredicate(text);
    ASSERT_TRUE(other.Bind(schema).ok());
    EXPECT_FALSE(CompiledPredicate::Compile(other, schema, columns)
                     .DeriveSelection(log_.size(), 0.10)
                     .constrained)
        << text;
    ExpectSelectionSound(log_, MustPredicate(text));
  }
}

TEST_F(CompiledPredicateTest, SelectionSoundOnRandomizedConjunctions) {
  Rng rng(271);
  for (int round = 0; round < 80; ++round) {
    Schema schema;
    PX_CHECK(schema.Add("n0", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("s0", ValueKind::kNominal).ok());
    PX_CHECK(schema.Add("n1", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("s1", ValueKind::kNominal).ok());
    ExecutionLog log(schema);
    const char* nominal_pool[] = {"a", "b", "a,b", "c", ""};
    // Values that chain at f = 0.1 (and 0.5) without being tight, drawn
    // most often; ±0, negatives, and ±inf last.
    const double numeric_pool[] = {
        1.0,  1.09, 1.18, 1.0, 1.09, 1.18, -1.0, -1.09, -1.18, 0.5,
        -0.0, 0.0,  2.0,  -2.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()};
    // Columns without infinities keep their band joins more often.
    const bool infinite = rng.UniformInt(0, 3) == 0;
    const int rows = static_cast<int>(rng.UniformInt(2, 10));
    for (int r = 0; r < rows; ++r) {
      std::vector<Value> values;
      for (int c = 0; c < 4; ++c) {
        const int kind = static_cast<int>(rng.UniformInt(0, 5));
        if (kind == 0) {
          values.push_back(Value::Missing());
        } else if (c == 1 || c == 3) {
          values.push_back(
              Value::Nominal(nominal_pool[rng.UniformInt(0, 4)]));
        } else if (kind == 1) {
          values.push_back(Value::Number(std::nan("")));
        } else {
          values.push_back(Value::Number(
              numeric_pool[rng.UniformInt(0, infinite ? 15 : 13)]));
        }
      }
      PX_CHECK(log.Add(ExecutionRecord(StrFormat("t%02d", r),
                                       std::move(values)))
                   .ok());
    }
    const char* atoms[] = {
        "n0_isSame = T",    "s0_isSame = F",     "n1_compare = GT",
        "s0_diff = (a,b)",  "s0_diff != (a,b)",  "n0 = 1",
        "n0 != 0",          "n1 <= 0",           "n1 >= 1",
        "s0 = a",           "s0 != b",           "s0_isSame = T",
        "s0_isSame != F",   "s1_isSame = T",     "n0_isSame != F",
        "n1_compare = SIM", "n1_isSame = T",     "n0_compare = SIM"};
    const int width = static_cast<int>(rng.UniformInt(1, 3));
    std::string text;
    for (int a = 0; a < width; ++a) {
      if (a > 0) text += " AND ";
      text += atoms[rng.UniformInt(0, 17)];
    }
    for (double f : {0.0, 0.1, 0.5, 1.0, 1.5}) {
      ExpectSelectionSound(log, MustPredicate(text), f);
    }
  }
}

}  // namespace
}  // namespace perfxplain
