#include "pxql/ast.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace perfxplain {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Atom Atom::Bound(const PairSchema& schema, std::size_t pair_index,
                 CompareOp op, Value constant) {
  Atom atom(schema.NameOf(pair_index), op, std::move(constant));
  atom.pair_index_ = pair_index;
  return atom;
}

Status Atom::Bind(const PairSchema& schema) {
  auto index = schema.Resolve(feature_);
  if (!index.ok()) return index.status();
  pair_index_ = index.value();
  const ValueKind kind = schema.ValueKindOf(pair_index_);
  const bool ordering = op_ != CompareOp::kEq && op_ != CompareOp::kNe;
  if (ordering) {
    if (kind != ValueKind::kNumeric) {
      return Status::InvalidArgument("ordering operator on nominal feature: " +
                                     ToString());
    }
    if (!constant_.is_numeric()) {
      return Status::InvalidArgument("ordering operator needs numeric "
                                     "constant: " +
                                     ToString());
    }
  } else if (kind == ValueKind::kNumeric && constant_.is_nominal()) {
    return Status::InvalidArgument("nominal constant for numeric feature: " +
                                   ToString());
  }
  return Status::OK();
}

bool Atom::Matches(const Value& value) const {
  if (value.is_missing()) return false;
  switch (op_) {
    case CompareOp::kEq:
      return value == constant_;
    case CompareOp::kNe:
      return !constant_.is_missing() && value != constant_ &&
             value.kind() == constant_.kind();
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      if (!value.is_numeric() || !constant_.is_numeric()) return false;
      return CompareDoubles(op_, value.number(), constant_.number());
    }
  }
  return false;
}

std::string Atom::ToString() const {
  return feature_ + " " + CompareOpToString(op_) + " " + constant_.ToString();
}

Predicate Predicate::And(const Predicate& other) const {
  std::vector<Atom> atoms = atoms_;
  atoms.insert(atoms.end(), other.atoms_.begin(), other.atoms_.end());
  return Predicate(std::move(atoms));
}

Status Predicate::Bind(const PairSchema& schema) {
  for (Atom& atom : atoms_) {
    PX_RETURN_IF_ERROR(atom.Bind(schema));
  }
  return Status::OK();
}

bool Predicate::bound() const {
  return std::all_of(atoms_.begin(), atoms_.end(),
                     [](const Atom& a) { return a.bound(); });
}


std::string Predicate::ToString() const {
  if (atoms_.empty()) return "true";
  std::string out;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += atoms_[i].ToString();
  }
  return out;
}

namespace {

/// Numeric interval with optional open bounds plus nominal constraints,
/// accumulated per feature while checking disjointness.
struct FeatureConstraint {
  double lo = -std::numeric_limits<double>::infinity();
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
  bool hi_open = false;
  // At most one required nominal/exact value; empty = unconstrained.
  bool has_equal = false;
  Value equal;
  std::vector<Value> not_equal;
  bool contradictory = false;

  void AddAtom(const Atom& atom) {
    const Value& c = atom.constant();
    switch (atom.op()) {
      case CompareOp::kEq:
        if (has_equal && !(equal == c)) {
          contradictory = true;
        } else {
          has_equal = true;
          equal = c;
        }
        break;
      case CompareOp::kNe:
        not_equal.push_back(c);
        break;
      case CompareOp::kLt:
        if (c.is_numeric() && (c.number() < hi ||
                               (c.number() == hi && !hi_open))) {
          hi = c.number();
          hi_open = true;
        }
        break;
      case CompareOp::kLe:
        if (c.is_numeric() && c.number() < hi) {
          hi = c.number();
          hi_open = false;
        }
        break;
      case CompareOp::kGt:
        if (c.is_numeric() && (c.number() > lo ||
                               (c.number() == lo && !lo_open))) {
          lo = c.number();
          lo_open = true;
        }
        break;
      case CompareOp::kGe:
        if (c.is_numeric() && c.number() > lo) {
          lo = c.number();
          lo_open = false;
        }
        break;
    }
  }

  bool Unsatisfiable() const {
    if (contradictory) return true;
    if (lo > hi) return true;
    if (lo == hi && (lo_open || hi_open)) return true;
    if (has_equal) {
      for (const Value& v : not_equal) {
        if (v == equal) return true;
      }
      if (equal.is_numeric()) {
        const double e = equal.number();
        if (e < lo || e > hi) return true;
        if (e == lo && lo_open) return true;
        if (e == hi && hi_open) return true;
      }
    }
    return false;
  }
};

}  // namespace

bool ProvablyDisjoint(const Predicate& a, const Predicate& b) {
  std::map<std::string, FeatureConstraint> constraints;
  for (const Predicate* p : {&a, &b}) {
    for (const Atom& atom : p->atoms()) {
      constraints[atom.feature()].AddAtom(atom);
    }
  }
  for (const auto& [feature, constraint] : constraints) {
    if (constraint.Unsatisfiable()) return true;
  }
  return false;
}

}  // namespace perfxplain
