#ifndef PERFXPLAIN_PXQL_AST_H_
#define PERFXPLAIN_PXQL_AST_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "features/pair_schema.h"

namespace perfxplain {

/// Comparison operators supported by PXQL predicates (§3.2).
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

/// Renders the operator as PXQL text ("=", "!=", "<", "<=", ">", ">=").
const char* CompareOpToString(CompareOp op);

/// Applies the operator to two doubles with plain IEEE semantics (NaN
/// fails every test except !=). The single definition shared by
/// Atom::Matches and the columnar fast paths, which must agree
/// bit-for-bit.
inline bool CompareDoubles(CompareOp op, double v, double c) {
  switch (op) {
    case CompareOp::kEq:
      return v == c;
    case CompareOp::kNe:
      return v != c;
    case CompareOp::kLt:
      return v < c;
    case CompareOp::kLe:
      return v <= c;
    case CompareOp::kGt:
      return v > c;
    case CompareOp::kGe:
      return v >= c;
  }
  return false;
}

/// An atomic predicate `feature op constant` over pair features.
///
/// Atoms are created with a feature *name* and must be bound to a PairSchema
/// (resolving the name to a pair-feature index) before evaluation.
class Atom {
 public:
  Atom() = default;
  Atom(std::string feature, CompareOp op, Value constant)
      : feature_(std::move(feature)), op_(op), constant_(std::move(constant)) {}

  /// Creates an already-bound atom (used by the explanation generators,
  /// which work directly with pair-feature indexes).
  static Atom Bound(const PairSchema& schema, std::size_t pair_index,
                    CompareOp op, Value constant);

  const std::string& feature() const { return feature_; }
  CompareOp op() const { return op_; }
  const Value& constant() const { return constant_; }

  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
  bool bound() const { return pair_index_ != kUnbound; }
  std::size_t pair_index() const { return pair_index_; }

  /// Resolves feature() against `schema`. Also validates that the operator
  /// makes sense for the feature's value kind (ordering operators require a
  /// numeric feature and constant).
  Status Bind(const PairSchema& schema);

  /// True when `value` satisfies this atom. Missing values satisfy no atom
  /// (an explanation mentioning a feature is inapplicable to pairs for which
  /// that feature is undefined).
  bool Matches(const Value& value) const;

  /// PXQL text, e.g. "inputsize_compare = GT".
  std::string ToString() const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.feature_ == b.feature_ && a.op_ == b.op_ &&
           a.constant_ == b.constant_;
  }

 private:
  std::string feature_;
  CompareOp op_ = CompareOp::kEq;
  Value constant_;
  std::size_t pair_index_ = kUnbound;
};

/// A conjunction of atoms. The empty predicate is `true`.
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Atom> atoms) : atoms_(std::move(atoms)) {}

  static Predicate True() { return Predicate(); }

  bool is_true() const { return atoms_.empty(); }
  std::size_t width() const { return atoms_.size(); }
  const std::vector<Atom>& atoms() const { return atoms_; }

  void Append(Atom atom) { atoms_.push_back(std::move(atom)); }

  /// Concatenation of this predicate's atoms and `other`'s.
  Predicate And(const Predicate& other) const;

  Status Bind(const PairSchema& schema);
  bool bound() const;

  /// PXQL text, e.g. "a_isSame = T AND b_compare = SIM"; "true" when empty.
  std::string ToString() const;

  friend bool operator==(const Predicate& a, const Predicate& b) {
    return a.atoms_ == b.atoms_;
  }

 private:
  std::vector<Atom> atoms_;
};

/// Sound (but incomplete) disjointness check: returns true when no pair can
/// satisfy both `a` and `b`. Used to validate Definition 1's requirement
/// that obs entails NOT exp. Detects conflicts on a shared feature:
/// contradictory equalities, equality vs. inequality, and empty numeric
/// ranges.
bool ProvablyDisjoint(const Predicate& a, const Predicate& b);

}  // namespace perfxplain

#endif  // PERFXPLAIN_PXQL_AST_H_
