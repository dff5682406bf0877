#include "pxql/ast.h"

#include <gtest/gtest.h>

#include "pxql/compiled_predicate.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::MustPredicate;
using perfxplain::testing::TinyRecord;
using perfxplain::testing::TinySchema;

TEST(AtomTest, MatchesEquality) {
  Atom atom("f", CompareOp::kEq, Value::Nominal("T"));
  EXPECT_TRUE(atom.Matches(Value::Nominal("T")));
  EXPECT_FALSE(atom.Matches(Value::Nominal("F")));
  EXPECT_FALSE(atom.Matches(Value::Missing()));
}

TEST(AtomTest, MatchesInequality) {
  Atom atom("f", CompareOp::kNe, Value::Nominal("T"));
  EXPECT_TRUE(atom.Matches(Value::Nominal("F")));
  EXPECT_FALSE(atom.Matches(Value::Nominal("T")));
  // Missing never satisfies an atom, and != across kinds is false.
  EXPECT_FALSE(atom.Matches(Value::Missing()));
  EXPECT_FALSE(atom.Matches(Value::Number(1)));
}

TEST(AtomTest, MatchesOrderingOps) {
  Atom le("f", CompareOp::kLe, Value::Number(10));
  EXPECT_TRUE(le.Matches(Value::Number(10)));
  EXPECT_TRUE(le.Matches(Value::Number(-1)));
  EXPECT_FALSE(le.Matches(Value::Number(10.1)));
  Atom lt("f", CompareOp::kLt, Value::Number(10));
  EXPECT_FALSE(lt.Matches(Value::Number(10)));
  Atom ge("f", CompareOp::kGe, Value::Number(10));
  EXPECT_TRUE(ge.Matches(Value::Number(10)));
  EXPECT_FALSE(ge.Matches(Value::Number(9)));
  Atom gt("f", CompareOp::kGt, Value::Number(10));
  EXPECT_TRUE(gt.Matches(Value::Number(11)));
  // Ordering against a nominal value is false, not a crash.
  EXPECT_FALSE(gt.Matches(Value::Nominal("x")));
}

TEST(AtomTest, BindResolvesPairFeature) {
  PairSchema schema(TinySchema());
  Atom atom("x_compare", CompareOp::kEq, Value::Nominal("GT"));
  ASSERT_TRUE(atom.Bind(schema).ok());
  EXPECT_TRUE(atom.bound());
  EXPECT_EQ(atom.pair_index(),
            schema.IndexOf(PairFeatureKind::kCompare, 0));
}

TEST(AtomTest, BindRejectsOrderingOnNominal) {
  PairSchema schema(TinySchema());
  Atom atom("color_isSame", CompareOp::kLe, Value::Number(1));
  EXPECT_FALSE(atom.Bind(schema).ok());
}

TEST(AtomTest, BindRejectsNominalConstantForNumericFeature) {
  PairSchema schema(TinySchema());
  Atom atom("x", CompareOp::kEq, Value::Nominal("big"));
  EXPECT_FALSE(atom.Bind(schema).ok());
}

TEST(AtomTest, BindRejectsUnknownFeature) {
  PairSchema schema(TinySchema());
  Atom atom("no_such_feature", CompareOp::kEq, Value::Nominal("T"));
  EXPECT_FALSE(atom.Bind(schema).ok());
}

TEST(AtomTest, ToStringFormats) {
  EXPECT_EQ(Atom("f", CompareOp::kGe, Value::Number(128)).ToString(),
            "f >= 128");
  EXPECT_EQ(Atom("g", CompareOp::kEq, Value::Nominal("SIM")).ToString(),
            "g = SIM");
}

TEST(PredicateTest, EmptyPredicateIsTrue) {
  Predicate predicate;
  EXPECT_TRUE(predicate.is_true());
  EXPECT_EQ(predicate.ToString(), "true");
  const auto a = TinyRecord("a", 100, "red", 1);
  const auto b = TinyRecord("b", 200, "blue", 1);
  EXPECT_TRUE(reference::Holds(predicate, TinySchema(), a, b));
  const PairSchema schema(TinySchema());
  const ColumnarLog columns(TinySchema(), {a, b});
  EXPECT_TRUE(
      CompiledPredicate::Compile(predicate, schema, columns).Eval(0, 1, 0.1));
}

TEST(PredicateTest, ConjunctionEvaluation) {
  PairSchema schema(TinySchema());
  Predicate predicate = MustPredicate("x_isSame = T AND color_isSame = F");
  ASSERT_TRUE(predicate.Bind(schema).ok());
  const auto a = TinyRecord("a", 100, "red", 1);
  const auto b = TinyRecord("b", 101, "blue", 1);
  const auto c = TinyRecord("c", 101, "red", 1);
  const ColumnarLog columns(TinySchema(), {a, b, c});
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(predicate, schema, columns);
  EXPECT_TRUE(reference::Holds(predicate, TinySchema(), a, b));
  EXPECT_TRUE(compiled.Eval(0, 1, 0.1));
  EXPECT_FALSE(reference::Holds(predicate, TinySchema(), a, c));
  EXPECT_FALSE(compiled.Eval(0, 2, 0.1));
}

TEST(PredicateTest, AndConcatenates) {
  const Predicate p1 = MustPredicate("a_isSame = T");
  const Predicate p2 = MustPredicate("b_isSame = F AND c_isSame = T");
  const Predicate combined = p1.And(p2);
  EXPECT_EQ(combined.width(), 3u);
  EXPECT_EQ(combined.ToString(),
            "a_isSame = T AND b_isSame = F AND c_isSame = T");
  EXPECT_EQ(p1.And(Predicate::True()), p1);
}

TEST(ProvablyDisjointTest, ContradictoryEqualities) {
  EXPECT_TRUE(ProvablyDisjoint(MustPredicate("d_compare = GT"),
                               MustPredicate("d_compare = SIM")));
  EXPECT_FALSE(ProvablyDisjoint(MustPredicate("d_compare = GT"),
                                MustPredicate("d_compare = GT")));
}

TEST(ProvablyDisjointTest, EqualityVsInequality) {
  EXPECT_TRUE(ProvablyDisjoint(MustPredicate("d_compare = GT"),
                               MustPredicate("d_compare != GT")));
}

TEST(ProvablyDisjointTest, NumericRanges) {
  EXPECT_TRUE(ProvablyDisjoint(MustPredicate("x <= 5"),
                               MustPredicate("x >= 10")));
  EXPECT_FALSE(ProvablyDisjoint(MustPredicate("x <= 10"),
                                MustPredicate("x >= 10")));
  EXPECT_TRUE(ProvablyDisjoint(MustPredicate("x < 10"),
                               MustPredicate("x >= 10")));
  EXPECT_TRUE(ProvablyDisjoint(MustPredicate("x = 3"),
                               MustPredicate("x > 5")));
}

TEST(ProvablyDisjointTest, DifferentFeaturesNotDisjoint) {
  EXPECT_FALSE(ProvablyDisjoint(MustPredicate("a_isSame = T"),
                                MustPredicate("b_isSame = F")));
}

TEST(ProvablyDisjointTest, ConflictAcrossConjunctions) {
  EXPECT_TRUE(ProvablyDisjoint(
      MustPredicate("a_isSame = T AND d_compare = GT"),
      MustPredicate("b_isSame = F AND d_compare = LT")));
}

}  // namespace
}  // namespace perfxplain
