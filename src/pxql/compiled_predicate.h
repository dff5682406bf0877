#ifndef PERFXPLAIN_PXQL_COMPILED_PREDICATE_H_
#define PERFXPLAIN_PXQL_COMPILED_PREDICATE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "features/pair_schema.h"
#include "log/columnar.h"
#include "pxql/ast.h"
#include "pxql/query.h"

namespace perfxplain {

/// Opcode of one lowered PXQL atom. Atoms over pair features reduce, per
/// Table 1 feature kind and constant type, to integer-code or double
/// comparisons directly against the raw columns — no Value is ever built.
enum class PredOp : std::uint8_t {
  kAlwaysFalse,  ///< statically unsatisfiable (kind mismatch, unknown level,
                 ///< constant absent from the dictionary, ...)
  kIsSameEq,     ///< isSame code == code_target
  kIsSameNe,     ///< isSame code present && != code_target
  kCompareEq,    ///< compare code == code_target
  kCompareNe,    ///< compare code present && != code_target
  kDiffEq,       ///< diff packed pair in diff_targets
  kDiffNe,       ///< diff present && packed pair not in diff_targets
  kBaseNomEq,    ///< base nominal code == nom_target
  kBaseNomNe,    ///< base nominal code present && != nom_target
  kBaseNumCmp,   ///< base numeric present && value <cmp> num_const
};

/// One flat instruction of a compiled predicate program. The column
/// pointers are resolved at compile time (a program is only valid for the
/// ColumnarLog it was compiled against), so evaluation does zero lookups.
struct PredInstr {
  PredOp op = PredOp::kAlwaysFalse;
  CompareOp cmp = CompareOp::kEq;  ///< for kBaseNumCmp
  bool numeric_raw = false;        ///< isSame kernel selector
  const NumericColumn* num_col = nullptr;
  /// The numeric column's ColumnarLog::ValueOrder (band components).
  const std::vector<std::uint32_t>* value_order = nullptr;
  const NominalColumn* nom_col = nullptr;
  std::int8_t code_target = -1;    ///< isSame/compare constant code
  std::int32_t nom_target = StringInterner::kNoCode;
  double num_const = 0.0;
  /// Interned (left, right) pairs whose diff string equals the constant.
  std::vector<std::pair<std::int32_t, std::int32_t>> diff_targets;
};

/// An ascending list of candidate rows: a view into a PairSelection's
/// storage, or — for an unconstrained selection — every row [0, size).
class CandidateRows {
 public:
  CandidateRows(const std::uint32_t* rows, std::size_t size)
      : rows_(rows), size_(size) {}
  static CandidateRows AllRows(std::size_t rows) { return {nullptr, rows}; }

  bool all_rows() const { return rows_ == nullptr; }
  std::size_t size() const { return size_; }
  std::size_t operator[](std::size_t k) const {
    return rows_ != nullptr ? rows_[k] : k;
  }

 private:
  const std::uint32_t* rows_;  ///< null: the identity list
  std::size_t size_;
};

/// The candidate pairs of an ordered-pair scan, derived from one compiled
/// predicate: a sound pre-filter, so every ordered pair (i, j) that can
/// satisfy the predicate has i = first_rows[s] for some s and j in
/// Partners(s). Pruned pairs are all unrelated and contribute to no
/// tally, keeping results bitwise identical to the full scan.
///
/// Three shapes, one walk (core/pair_enumeration.h's ForEachCandidateRow):
///  - unconstrained: every row is a first row and every row its partner;
///  - a cross product: every first row's partners are `second_rows`;
///  - partitioned (equi-join and band join): rows are bucketed by the
///    codes the predicate's nominal isSame = T atoms require equal and by
///    the band components of its numeric similarity atoms, and a first
///    row's partners are the second rows of its own bucket.
/// Partner lists ascend, so walking first rows in order and each one's
/// partners in order visits the survivors in row-major order.
struct PairSelection {
  /// Row count of the scanned log.
  std::size_t rows = 0;
  /// False: every ordered pair is a candidate (the vectors are empty).
  bool constrained = false;
  /// Ascending rows that may appear first in an accepted pair.
  std::vector<std::uint32_t> first_rows;
  /// Ascending rows that may appear second in an accepted pair (the union
  /// of the partner lists).
  std::vector<std::uint32_t> second_rows;
  /// Partner buckets, empty unless partitioned(): first_rows[s]
  /// pairs with partners[bucket_begin[b] .. bucket_begin[b + 1]) for
  /// b = first_bucket[s]; each bucket's rows ascend.
  std::vector<std::uint32_t> first_bucket;
  std::vector<std::uint32_t> bucket_begin;
  std::vector<std::uint32_t> partners;

  /// The selection of a full scan over `rows` rows.
  static PairSelection AllPairs(std::size_t rows) {
    PairSelection selection;
    selection.rows = rows;
    return selection;
  }

  bool partitioned() const { return !bucket_begin.empty(); }
  /// Number of candidate first rows.
  std::size_t first_count() const {
    return constrained ? first_rows.size() : rows;
  }
  /// The s-th candidate first row (ascending in s).
  std::size_t first_row(std::size_t s) const {
    return constrained ? first_rows[s] : s;
  }
  /// Candidate second rows of the s-th first row; may include the first
  /// row itself (walkers skip the diagonal).
  CandidateRows Partners(std::size_t s) const;
};

/// Single-column selection scans over dictionary codes / numeric columns —
/// the ScanColumn fast path behind CompiledPredicate::DeriveSelection.
/// Each overwrites `out` with the ascending rows passing the test, using a
/// branchless append (out[count] = r; count += test) so the loop
/// auto-vectorizes. Exposed for tests and reuse.
void ScanColumnEqCode(const std::vector<std::int32_t>& codes,
                      std::int32_t target, std::vector<std::uint32_t>& out);
void ScanColumnPresentNeCode(const std::vector<std::int32_t>& codes,
                             std::int32_t excluded,
                             std::vector<std::uint32_t>& out);
void ScanColumnCodeIn(const std::vector<std::int32_t>& codes,
                      const std::vector<std::int32_t>& targets,
                      std::vector<std::uint32_t>& out);
void ScanColumnNumCmp(const NumericColumn& column, std::size_t rows,
                      CompareOp cmp, double constant,
                      std::vector<std::uint32_t>& out);

/// A conjunction of PXQL atoms lowered to a flat opcode program over the
/// columns of one ColumnarLog. Programs are only valid for the log (and the
/// interner) they were compiled against.
///
/// Semantics are Atom::Matches over the Table 1 pair features of (row i,
/// row j), pinned by the reference of tests/reference/ — including
/// missing-value atoms (missing satisfies no atom, not even Ne) and NaN
/// arithmetic. An atom no
/// pair can ever satisfy (kind mismatch, ordering operator on a nominal
/// value, constant absent from the dictionary) makes the whole program
/// always_false() at compile time, so scans skip it without visiting any
/// pair.
///
/// Thread safety: immutable after Compile; Eval is const and lock-free, so
/// one program may be evaluated from any number of row-stripe workers
/// concurrently.
class CompiledPredicate {
 public:
  /// Lowers `predicate` (all atoms bound to `schema`) against `columns`.
  static CompiledPredicate Compile(const Predicate& predicate,
                                   const PairSchema& schema,
                                   const ColumnarLog& columns);

  /// True when no pair can satisfy the predicate, decided at compile time.
  bool always_false() const { return always_false_; }
  std::size_t width() const { return instrs_.size(); }

  /// The ColumnarLog the program was compiled against. Row indexes passed
  /// to Eval must refer to this log; the instructions hold raw pointers
  /// into its columns.
  const ColumnarLog* source() const { return source_; }

  /// Evaluates the program for the ordered pair of rows (i, j) of the
  /// compiled-against log, without materializing any Value.
  bool Eval(std::size_t i, std::size_t j, double sim_fraction) const;

  /// Derives the candidate pairs of the program at similarity fraction
  /// `sim_fraction` in O(rows + dictionary):
  ///  - the first deterministic atom — the first instruction whose pair
  ///    test implies a per-row, single-column necessary condition — is
  ///    compiled into row filters via the ScanColumn fast path: base atoms
  ///    (kBaseNomEq/kBaseNomNe/kBaseNumCmp) require both rows to carry the
  ///    same qualifying value, so one column scan constrains both sides;
  ///    diff-equality atoms (kDiffEq) constrain the first row to the
  ///    target pairs' left codes and the second row to their right codes;
  ///  - every nominal isSame = T atom (and isSame != F, the same test on
  ///    a nominal column) is an equi-join: it holds only when both rows
  ///    carry the same present dictionary code;
  ///  - every numeric isSame = T, isSame != F and compare = SIM atom holds
  ///    only when both values are within the fraction (footnote 1). The
  ///    column's value order is cut wherever two consecutive values are
  ///    not, and for 0 <= f < 1 and finite values no pair across a cut is
  ///    similar, so the components between cuts are a band join. Missing
  ///    and NaN rows (NaN is similar to nothing) lie in no component.
  ///    A fraction >= 1 (or within 2^-20 of it), a column holding ±inf
  ///    (inf is within any positive fraction of every finite value) or a
  ///    value whose product with the fraction is subnormal gives the atom
  ///    no partition.
  /// The filtered rows are bucketed by the tuple of those codes and
  /// components (a counting sort on dense codes, refined once per
  /// further atom), and each first row's partners shrink to its own
  /// bucket. Rows with a missing code or alone in their bucket get no
  /// partners. Compare atoms other than SIM, isSame = F and
  /// diff-inequality atoms admit no sound join or row test; a program made
  /// only of those (or an always-false one) returns an unconstrained
  /// selection. `rows` must be the compiled-against log's row count.
  ///
  /// When `residual` is non-null it is set to this program minus the atoms
  /// that hold for every pair of every bucket: each equi-join atom, and a
  /// band atom whose every component is tight (its lowest and highest
  /// values are within the fraction). On the selection's candidate pairs
  /// the residual evaluates exactly as this program does at
  /// `sim_fraction`, and nowhere else is it meaningful.
  PairSelection DeriveSelection(std::size_t rows, double sim_fraction,
                                CompiledPredicate* residual = nullptr) const;

 private:
  std::vector<PredInstr> instrs_;
  bool always_false_ = false;
  const ColumnarLog* source_ = nullptr;
};

/// Kernel code of an isSame constant: "T"/"F" -> kTrueCode/kFalseCode,
/// anything else -> -2 (never equal to a produced code). Shared by the
/// predicate compiler and the encoded atom tests so the lowering of the
/// categorical domains has a single definition.
std::int8_t IsSameConstantTarget(const Value& constant);

/// Kernel code of a compare constant: "LT"/"SIM"/"GT" -> 0/1/2, anything
/// else -> -2.
std::int8_t CompareConstantTarget(const Value& constant);

/// All interned (left, right) code pairs whose "(left,right)" diff
/// rendering equals `constant`. A nominal value may itself contain commas,
/// so several splits of the constant can resolve; each match contributes
/// one pair. Shared by the predicate compiler and the encoded atom tests.
std::vector<std::pair<std::int32_t, std::int32_t>> DiffConstantTargets(
    const Value& constant, const StringInterner& interner);

/// A bound Query's three predicates (despite / observed / expected),
/// compiled against one ColumnarLog. The unit ClassifyPairCompiled and the
/// techniques consume: des first (so unrelated pairs cost only the des
/// atoms), then obs/exp for the Definition 8/9 label. Same lifetime and
/// thread-safety rules as CompiledPredicate.
struct CompiledQuery {
  CompiledPredicate despite;
  CompiledPredicate observed;
  CompiledPredicate expected;

  static CompiledQuery Compile(const Query& bound_query,
                               const PairSchema& schema,
                               const ColumnarLog& columns);
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_PXQL_COMPILED_PREDICATE_H_
