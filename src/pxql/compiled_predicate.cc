#include "pxql/compiled_predicate.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <string_view>

#include "features/pair_feature_kernel.h"

namespace perfxplain {

std::int8_t IsSameConstantTarget(const Value& constant) {
  if (!constant.is_nominal()) return -2;
  if (constant.nominal() == pair_values::kTrue) return kernel::kTrueCode;
  if (constant.nominal() == pair_values::kFalse) return kernel::kFalseCode;
  return -2;
}

std::int8_t CompareConstantTarget(const Value& constant) {
  if (!constant.is_nominal()) return -2;
  if (constant.nominal() == pair_values::kLt) return kernel::kLtCode;
  if (constant.nominal() == pair_values::kSim) return kernel::kSimCode;
  if (constant.nominal() == pair_values::kGt) return kernel::kGtCode;
  return -2;
}

std::vector<std::pair<std::int32_t, std::int32_t>> DiffConstantTargets(
    const Value& constant, const StringInterner& interner) {
  std::vector<std::pair<std::int32_t, std::int32_t>> targets;
  if (!constant.is_nominal()) return targets;
  const std::string& text = constant.nominal();
  if (text.size() < 3 || text.front() != '(' || text.back() != ')') {
    return targets;
  }
  const std::string_view inner(text.data() + 1, text.size() - 2);
  for (std::size_t comma = 0; comma < inner.size(); ++comma) {
    if (inner[comma] != ',') continue;
    const std::int32_t left = interner.Lookup(inner.substr(0, comma));
    if (left == StringInterner::kNoCode) continue;
    const std::int32_t right = interner.Lookup(inner.substr(comma + 1));
    if (right == StringInterner::kNoCode) continue;
    targets.emplace_back(left, right);
  }
  return targets;
}

namespace {

/// Branchless selection append shared by the ScanColumn overloads: the
/// row index is written unconditionally and the cursor advances by the
/// test result, so the loop body is straight-line and auto-vectorizable.
template <typename Test>
void ScanColumnWith(std::size_t rows, std::vector<std::uint32_t>& out,
                    Test&& test) {
  out.resize(rows);
  std::uint32_t* dst = out.data();
  std::size_t count = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    dst[count] = static_cast<std::uint32_t>(r);
    count += static_cast<std::size_t>(test(r));
  }
  out.resize(count);
}

}  // namespace

void ScanColumnEqCode(const std::vector<std::int32_t>& codes,
                      std::int32_t target, std::vector<std::uint32_t>& out) {
  const std::int32_t* c = codes.data();
  ScanColumnWith(codes.size(), out,
                 [c, target](std::size_t r) { return c[r] == target; });
}

void ScanColumnPresentNeCode(const std::vector<std::int32_t>& codes,
                             std::int32_t excluded,
                             std::vector<std::uint32_t>& out) {
  const std::int32_t* c = codes.data();
  ScanColumnWith(codes.size(), out, [c, excluded](std::size_t r) {
    return c[r] != StringInterner::kNoCode && c[r] != excluded;
  });
}

void ScanColumnCodeIn(const std::vector<std::int32_t>& codes,
                      const std::vector<std::int32_t>& targets,
                      std::vector<std::uint32_t>& out) {
  const std::int32_t* c = codes.data();
  ScanColumnWith(codes.size(), out, [&](std::size_t r) {
    for (std::int32_t target : targets) {
      if (c[r] == target) return true;
    }
    return false;
  });
}

void ScanColumnNumCmp(const NumericColumn& column, std::size_t rows,
                      CompareOp cmp, double constant,
                      std::vector<std::uint32_t>& out) {
  ScanColumnWith(rows, out, [&](std::size_t r) {
    const double value = column.values[r];
    return column.present.Test(r) && !std::isnan(value) &&
           CompareDoubles(cmp, value, constant);
  });
}

CandidateRows PairSelection::Partners(std::size_t s) const {
  if (!constrained) return CandidateRows::AllRows(rows);
  if (!partitioned()) return {second_rows.data(), second_rows.size()};
  const std::uint32_t bucket = first_bucket[s];
  return {partners.data() + bucket_begin[bucket],
          bucket_begin[bucket + 1] - bucket_begin[bucket]};
}

namespace {

/// Applies `instr` as a per-row filter when it implies a single-column
/// necessary condition on each side (see DeriveSelection); returns false
/// for atoms that relate the two rows and admit no such test.
bool DeriveRowFilter(const PredInstr& instr, std::size_t rows,
                     PairSelection& selection) {
  switch (instr.op) {
    case PredOp::kBaseNomEq:
      // base nominal == c holds only when both rows carry code c.
      ScanColumnEqCode(instr.nom_col->codes, instr.nom_target,
                       selection.first_rows);
      selection.second_rows = selection.first_rows;
      return true;
    case PredOp::kBaseNomNe:
      // base nominal != c needs a shared present code other than c, so
      // each row must hold a present code != c (kNoCode target — a
      // constant the dictionary never saw — degenerates to presence).
      ScanColumnPresentNeCode(instr.nom_col->codes, instr.nom_target,
                              selection.first_rows);
      selection.second_rows = selection.first_rows;
      return true;
    case PredOp::kBaseNumCmp:
      // base numeric <cmp> c requires both rows present with the same
      // value v and cmp(v, c); each row must itself be present, not NaN
      // (NaN != NaN makes the base feature missing, yet NaN != c holds)
      // and pass cmp(value, c).
      ScanColumnNumCmp(*instr.num_col, rows, instr.cmp, instr.num_const,
                       selection.first_rows);
      selection.second_rows = selection.first_rows;
      return true;
    case PredOp::kDiffEq: {
      // diff == "(l,r)" pins the first row to a target left code and the
      // second row to a target right code.
      std::vector<std::int32_t> lefts;
      std::vector<std::int32_t> rights;
      lefts.reserve(instr.diff_targets.size());
      rights.reserve(instr.diff_targets.size());
      for (const auto& [left, right] : instr.diff_targets) {
        lefts.push_back(left);
        rights.push_back(right);
      }
      ScanColumnCodeIn(instr.nom_col->codes, lefts, selection.first_rows);
      ScanColumnCodeIn(instr.nom_col->codes, rights, selection.second_rows);
      return true;
    }
    default:
      // isSame/compare/diff-inequality atoms relate the two rows; their
      // only per-row consequence is presence, too weak to pay for.
      return false;
  }
}

/// True for an atom that holds only when both rows carry the same present
/// code of a nominal column: isSame = T, or isSame != F (the nominal
/// isSame domain is {T, F}, so "present and not F" is T).
bool IsEquiJoin(const PredInstr& instr) {
  if (instr.numeric_raw) return false;
  return (instr.op == PredOp::kIsSameEq &&
          instr.code_target == kernel::kTrueCode) ||
         (instr.op == PredOp::kIsSameNe &&
          instr.code_target == kernel::kFalseCode);
}

/// True for an atom that holds exactly when both rows of a numeric column
/// are present and kernel::WithinFraction: isSame = T, isSame != F and
/// compare = SIM.
bool IsBandJoin(const PredInstr& instr) {
  if (!instr.numeric_raw) return false;
  return (instr.op == PredOp::kIsSameEq &&
          instr.code_target == kernel::kTrueCode) ||
         (instr.op == PredOp::kIsSameNe &&
          instr.code_target == kernel::kFalseCode) ||
         (instr.op == PredOp::kCompareEq &&
          instr.code_target == kernel::kSimCode);
}

/// One partition key of a joined column: a per-row code in
/// [0, dictionary), or negative for a row that can have no partner.
/// `implied`: the column's join atoms hold for every pair of rows that
/// share a code.
struct PartitionKey {
  const void* column;
  const std::int32_t* codes;
  std::size_t dictionary;
  bool implied;
};

/// The band components of one numeric column at one fraction.
struct Bands {
  std::vector<std::int32_t> codes;  ///< per row; kNoCode outside the order
  std::size_t count = 0;
  bool tight = true;  ///< every component's extremes are within f
};

/// Cuts `order` (a column's ascending present, non-NaN rows) into band
/// components at fraction f; false when the cut would not be sound.
///
/// Over the reals the similar values of any x form an interval around it
/// for 0 <= f < 1: for 0 < a <= u < v <= c, a ~ c means a >= (1 - f)c,
/// so u >= (1 - f)v and u ~ v (negatives mirror this), while values of
/// opposite sign, or zero against non-zero, are never similar. So a pair
/// across a cut between consecutive, dissimilar u < v is dissimilar, and
/// every pair inside a component whose extremes are similar is similar.
/// WithinFraction rounds, so cuts are tested at a fraction 2^-30 wider and
/// tightness at one 2^-30 narrower: with both products normal (checked
/// per value) and f < 1 - 2^-20, that margin absorbs every rounding
/// error of the subtraction and the product.
bool CutBands(const NumericColumn& column,
              const std::vector<std::uint32_t>& order, double f,
              std::size_t rows, Bands& bands) {
  constexpr double kMaxFraction = 1.0 - 0x1p-20;
  constexpr double kMargin = 0x1p-30;
  if (!(f >= 0.0 && f < kMaxFraction)) return false;
  const double* values = column.values.data();
  if (!order.empty() && (std::isinf(values[order.front()]) ||
                         std::isinf(values[order.back()]))) {
    return false;
  }
  const double cut = f * (1.0 + kMargin);
  const double tight = f * (1.0 - kMargin);
  bands.codes.assign(rows, StringInterner::kNoCode);
  bands.count = 0;
  bands.tight = true;
  if (order.empty()) return true;
  double low = values[order.front()];
  double previous = low;
  for (std::uint32_t r : order) {
    const double value = values[r];
    if (f > 0.0 && value != 0.0 && f * std::abs(value) < 2.0 * DBL_MIN) {
      return false;
    }
    if (!kernel::WithinFraction(previous, value, cut)) {
      bands.tight &= kernel::WithinFraction(low, previous, tight);
      ++bands.count;
      low = value;
    }
    bands.codes[r] = static_cast<std::int32_t>(bands.count);
    previous = value;
  }
  bands.tight &= kernel::WithinFraction(low, previous, tight);
  ++bands.count;
  return true;
}

/// Buckets the rows of `selection` (all rows when `filtered` is false) by
/// the tuple of their codes under `keys` and rewrites the selection into
/// per-bucket partner lists. Each key refines the previous buckets: rows
/// are kept grouped by bucket (ascending within one), and a group's rows
/// get a fresh sub-bucket per distinct code via a per-code stamp —
/// O(rows + dictionary) per key, no hashing, no ordered map.
void PartitionByCodes(const std::vector<PartitionKey>& keys, bool filtered,
                      PairSelection& selection) {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  constexpr std::uint8_t kFirst = 1;
  constexpr std::uint8_t kSecond = 2;
  const std::size_t rows = selection.rows;
  std::vector<std::uint8_t> side(rows, filtered ? 0 : kFirst | kSecond);
  if (filtered) {
    for (std::uint32_t r : selection.first_rows) side[r] |= kFirst;
    for (std::uint32_t r : selection.second_rows) side[r] |= kSecond;
  }
  // `order` lists the bucketed rows grouped by bucket, group g spanning
  // [bounds[g], bounds[g + 1]); `bucket` maps a row to its group.
  std::vector<std::uint32_t> order;
  order.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    if (side[r] != 0) order.push_back(static_cast<std::uint32_t>(r));
  }
  std::vector<std::uint32_t> bounds = {
      0, static_cast<std::uint32_t>(order.size())};
  std::vector<std::uint32_t> bucket(rows, kNone);
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> code_bucket;
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint32_t> next;
  for (const PartitionKey& key : keys) {
    stamp.assign(key.dictionary, kNone);
    code_bucket.resize(key.dictionary);
    sizes.clear();
    const std::int32_t* codes = key.codes;
    for (std::uint32_t g = 0; g + 1 < bounds.size(); ++g) {
      for (std::uint32_t k = bounds[g]; k < bounds[g + 1]; ++k) {
        const std::uint32_t r = order[k];
        const std::int32_t code = codes[r];
        if (code < 0) {  // missing (or NaN): the atom can never hold
          bucket[r] = kNone;
          continue;
        }
        if (stamp[code] != g) {
          stamp[code] = g;
          code_bucket[code] = static_cast<std::uint32_t>(sizes.size());
          sizes.push_back(0);
        }
        bucket[r] = code_bucket[code];
        ++sizes[bucket[r]];
      }
    }
    // Stable counting sort of the surviving rows by their new bucket:
    // `order` ascends within each old group, so it ascends within each
    // new bucket too.
    bounds.assign(sizes.size() + 1, 0);
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      bounds[b + 1] = bounds[b] + sizes[b];
    }
    next.resize(bounds.back());
    std::vector<std::uint32_t> cursor(bounds.begin(), bounds.end() - 1);
    for (std::uint32_t r : order) {
      if (bucket[r] != kNone) next[cursor[bucket[r]]++] = r;
    }
    order.swap(next);
  }

  // Per-bucket side counts decide who has a partner other than itself.
  const std::size_t buckets = bounds.size() - 1;
  std::vector<std::uint32_t> first_count(buckets, 0);
  std::vector<std::uint32_t> second_count(buckets, 0);
  for (std::uint32_t r : order) {
    first_count[bucket[r]] += (side[r] & kFirst) != 0;
    second_count[bucket[r]] += (side[r] & kSecond) != 0;
  }
  selection.constrained = true;
  selection.first_rows.clear();
  selection.second_rows.clear();
  selection.first_bucket.clear();
  selection.bucket_begin.assign(1, 0);
  selection.partners.clear();
  selection.first_rows.reserve(order.size());
  selection.second_rows.reserve(order.size());
  selection.first_bucket.reserve(order.size());
  selection.bucket_begin.reserve(buckets + 1);
  selection.partners.reserve(order.size());
  for (std::size_t b = 0; b < buckets; ++b) {
    for (std::uint32_t k = bounds[b]; k < bounds[b + 1]; ++k) {
      if (side[order[k]] & kSecond) selection.partners.push_back(order[k]);
    }
    selection.bucket_begin.push_back(
        static_cast<std::uint32_t>(selection.partners.size()));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t b = bucket[r];
    if (b == kNone) continue;
    const bool first = (side[r] & kFirst) != 0;
    const bool second = (side[r] & kSecond) != 0;
    if (first && second_count[b] > (second ? 1u : 0u)) {
      selection.first_rows.push_back(static_cast<std::uint32_t>(r));
      selection.first_bucket.push_back(b);
    }
    if (second && first_count[b] > (first ? 1u : 0u)) {
      selection.second_rows.push_back(static_cast<std::uint32_t>(r));
    }
  }
}

}  // namespace

PairSelection CompiledPredicate::DeriveSelection(
    std::size_t rows, double sim_fraction,
    CompiledPredicate* residual) const {
  PairSelection selection = PairSelection::AllPairs(rows);
  if (residual != nullptr) *residual = *this;
  if (always_false_) return selection;
  // One key per distinct joined column; a column's band components serve
  // every band atom on it (they all test the same WithinFraction).
  std::vector<PartitionKey> keys;
  std::vector<Bands> bands;
  bands.reserve(instrs_.size());  // keys point into its elements
  std::vector<bool> implied(instrs_.size(), false);
  for (std::size_t a = 0; a < instrs_.size(); ++a) {
    const PredInstr& instr = instrs_[a];
    if (!selection.constrained) {
      selection.constrained = DeriveRowFilter(instr, rows, selection);
    }
    const bool equi = IsEquiJoin(instr);
    if (!equi && !IsBandJoin(instr)) continue;
    const void* column = equi ? static_cast<const void*>(instr.nom_col)
                              : static_cast<const void*>(instr.num_col);
    auto key = std::find_if(keys.begin(), keys.end(),
                            [column](const PartitionKey& k) {
                              return k.column == column;
                            });
    if (key == keys.end()) {
      if (equi) {
        keys.push_back({column, instr.nom_col->codes.data(),
                        source_->interner().size(), true});
      } else {
        Bands cut;
        if (!CutBands(*instr.num_col, *instr.value_order, sim_fraction,
                      rows, cut)) {
          continue;  // no sound partition: the atom stays per pair
        }
        bands.push_back(std::move(cut));
        keys.push_back({column, bands.back().codes.data(),
                        bands.back().count, bands.back().tight});
      }
      key = keys.end() - 1;
    }
    implied[a] = key->implied;
  }
  if (keys.empty()) return selection;
  PartitionByCodes(keys, selection.constrained, selection);
  if (residual != nullptr) {
    residual->instrs_.clear();
    for (std::size_t a = 0; a < instrs_.size(); ++a) {
      if (!implied[a]) residual->instrs_.push_back(instrs_[a]);
    }
  }
  return selection;
}

namespace {

/// Lowers one bound atom. Unrepresentable combinations (kind mismatches,
/// constants the dictionary has never seen for equality tests, ordering
/// operators on nominal-valued features) compile to kAlwaysFalse — the
/// exact behavior of Atom::Matches, decided once instead of per pair.
PredInstr CompileAtom(const Atom& atom, const PairSchema& schema,
                      const ColumnarLog& columns) {
  PX_CHECK(atom.bound()) << "cannot compile unbound atom: " << atom.feature();
  PredInstr instr;
  const std::size_t pair_index = atom.pair_index();
  const std::size_t col = schema.RawIndexOf(pair_index);
  instr.numeric_raw = columns.is_numeric(col);
  if (instr.numeric_raw) {
    instr.num_col = &columns.numeric_column(col);
    instr.value_order = &columns.ValueOrder(col);
  } else {
    instr.nom_col = &columns.nominal_column(col);
  }
  const PairFeatureKind kind = schema.KindOf(pair_index);
  const Value& constant = atom.constant();
  const CompareOp op = atom.op();
  const bool ordering = op != CompareOp::kEq && op != CompareOp::kNe;

  // compare features of nominal raw features and diff features of numeric
  // raw features are always missing; missing satisfies no atom.
  if (kind == PairFeatureKind::kCompare && !instr.numeric_raw) return instr;
  if (kind == PairFeatureKind::kDiff && instr.numeric_raw) return instr;

  switch (kind) {
    case PairFeatureKind::kIsSame: {
      if (ordering) return instr;  // value is never numeric
      const std::int8_t target = IsSameConstantTarget(constant);
      if (op == CompareOp::kEq) {
        if (target < 0) return instr;  // constant can never be produced
        instr.op = PredOp::kIsSameEq;
        instr.code_target = target;
        return instr;
      }
      // Ne: nominal constants exclude their own code (or nothing, when the
      // constant is not a produced level); other kinds never match.
      if (!constant.is_nominal()) return instr;
      instr.op = PredOp::kIsSameNe;
      instr.code_target = target;  // -2 excludes nothing
      return instr;
    }
    case PairFeatureKind::kCompare: {
      if (ordering) return instr;
      const std::int8_t target = CompareConstantTarget(constant);
      if (op == CompareOp::kEq) {
        if (target < 0) return instr;
        instr.op = PredOp::kCompareEq;
        instr.code_target = target;
        return instr;
      }
      if (!constant.is_nominal()) return instr;
      instr.op = PredOp::kCompareNe;
      instr.code_target = target;
      return instr;
    }
    case PairFeatureKind::kDiff: {
      if (ordering) return instr;
      if (!constant.is_nominal()) return instr;
      instr.diff_targets = DiffConstantTargets(constant, columns.interner());
      if (op == CompareOp::kEq) {
        if (instr.diff_targets.empty()) return instr;
        instr.op = PredOp::kDiffEq;
        return instr;
      }
      instr.op = PredOp::kDiffNe;  // empty targets: any present pair matches
      return instr;
    }
    case PairFeatureKind::kBase: {
      if (instr.numeric_raw) {
        // Base numeric features admit every operator against a numeric
        // constant; any other constant kind fails Atom::Matches.
        if (!constant.is_numeric()) return instr;
        instr.op = PredOp::kBaseNumCmp;
        instr.cmp = op;
        instr.num_const = constant.number();
        return instr;
      }
      if (ordering) return instr;  // ordering needs a numeric value
      if (!constant.is_nominal()) return instr;
      const std::int32_t target = columns.interner().Lookup(
          constant.nominal());
      if (op == CompareOp::kEq) {
        if (target == StringInterner::kNoCode) return instr;
        instr.op = PredOp::kBaseNomEq;
        instr.nom_target = target;
        return instr;
      }
      instr.op = PredOp::kBaseNomNe;
      instr.nom_target = target;  // kNoCode excludes nothing
      return instr;
    }
  }
  return instr;
}

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const Predicate& predicate,
                                             const PairSchema& schema,
                                             const ColumnarLog& columns) {
  CompiledPredicate compiled;
  compiled.source_ = &columns;
  for (const Atom& atom : predicate.atoms()) {
    PredInstr instr = CompileAtom(atom, schema, columns);
    if (instr.op == PredOp::kAlwaysFalse) {
      compiled.always_false_ = true;
      compiled.instrs_.clear();
      return compiled;
    }
    compiled.instrs_.push_back(std::move(instr));
  }
  return compiled;
}

bool CompiledPredicate::Eval(std::size_t i, std::size_t j,
                             double sim_fraction) const {
  if (always_false_) return false;
  for (const PredInstr& instr : instrs_) {
    bool match = false;
    switch (instr.op) {
      case PredOp::kAlwaysFalse:
        return false;
      case PredOp::kIsSameEq:
      case PredOp::kIsSameNe: {
        std::int8_t code;
        if (instr.numeric_raw) {
          const NumericColumn& c = *instr.num_col;
          code = kernel::IsSameNumeric(c.present.Test(i), c.values[i],
                                       c.present.Test(j), c.values[j],
                                       sim_fraction);
        } else {
          const NominalColumn& c = *instr.nom_col;
          code = kernel::IsSameNominal(c.codes[i], c.codes[j]);
        }
        match = instr.op == PredOp::kIsSameEq
                    ? code == instr.code_target
                    : code >= 0 && code != instr.code_target;
        break;
      }
      case PredOp::kCompareEq:
      case PredOp::kCompareNe: {
        const NumericColumn& c = *instr.num_col;
        const std::int8_t code = kernel::CompareNumeric(
            c.present.Test(i), c.values[i], c.present.Test(j), c.values[j],
            sim_fraction);
        match = instr.op == PredOp::kCompareEq
                    ? code == instr.code_target
                    : code >= 0 && code != instr.code_target;
        break;
      }
      case PredOp::kDiffEq:
      case PredOp::kDiffNe: {
        const NominalColumn& c = *instr.nom_col;
        const std::int64_t packed = kernel::DiffPacked(c.codes[i],
                                                       c.codes[j]);
        if (packed == kernel::kMissingDiff) {
          match = false;
          break;
        }
        bool in_targets = false;
        for (const auto& [left, right] : instr.diff_targets) {
          if (kernel::DiffLeft(packed) == left &&
              kernel::DiffRight(packed) == right) {
            in_targets = true;
            break;
          }
        }
        match = instr.op == PredOp::kDiffEq ? in_targets : !in_targets;
        break;
      }
      case PredOp::kBaseNomEq:
      case PredOp::kBaseNomNe: {
        const NominalColumn& c = *instr.nom_col;
        const std::int32_t code = kernel::BaseNominal(c.codes[i], c.codes[j]);
        match = instr.op == PredOp::kBaseNomEq
                    ? code != StringInterner::kNoCode &&
                          code == instr.nom_target
                    : code != StringInterner::kNoCode &&
                          code != instr.nom_target;
        break;
      }
      case PredOp::kBaseNumCmp: {
        const NumericColumn& c = *instr.num_col;
        const kernel::BaseNumericResult base = kernel::BaseNumeric(
            c.present.Test(i), c.values[i], c.present.Test(j), c.values[j]);
        match = base.present &&
                CompareDoubles(instr.cmp, base.value, instr.num_const);
        break;
      }
    }
    if (!match) return false;
  }
  return true;
}

CompiledQuery CompiledQuery::Compile(const Query& bound_query,
                                     const PairSchema& schema,
                                     const ColumnarLog& columns) {
  CompiledQuery compiled;
  compiled.despite =
      CompiledPredicate::Compile(bound_query.despite, schema, columns);
  compiled.observed =
      CompiledPredicate::Compile(bound_query.observed, schema, columns);
  compiled.expected =
      CompiledPredicate::Compile(bound_query.expected, schema, columns);
  return compiled;
}

}  // namespace perfxplain
