#ifndef PERFXPLAIN_ML_ENCODED_DATASET_H_
#define PERFXPLAIN_ML_ENCODED_DATASET_H_

#include <cstdint>
#include <vector>

#include "common/value.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "pxql/ast.h"

namespace perfxplain {

/// A set of EncodedDataset rows: bit r % 64 of word r / 64 is row r.
using RowBitmap = std::vector<std::uint64_t>;

/// A column-major, integer-coded training matrix: one column per Table 1
/// pair feature, one row per sampled training pair. Built from a
/// ColumnarLog via the pair-feature kernels, so no Value is ever
/// materialized on the fast path.
///
/// Column representations:
///  - nominal-valued features (isSame, compare, diff, nominal base) expose
///    a uniform int64 code view: isSame/compare use the kernel codes, diff
///    uses packed (left,right) interner-code pairs, nominal base uses the
///    shared interner's codes. Negative = missing. Equal codes <=> equal
///    Values.
///  - numeric base features are double arrays with a presence bitmap.
///
/// The ColumnarLog must outlive the dataset (codes decode through its
/// interner, and the split search walks its numeric value orders).
class EncodedDataset {
 public:
  EncodedDataset(const ColumnarLog& columns, const PairSchema& schema,
                 const std::vector<PairRef>& pairs, double sim_fraction);

  std::size_t rows() const { return pairs_.size(); }
  const PairSchema& schema() const { return *schema_; }
  const ColumnarLog& columns() const { return *columns_; }
  const StringInterner& interner() const { return columns_->interner(); }
  const std::vector<PairRef>& pairs() const { return pairs_; }

  /// Per-row observed/expected labels (1 = observed).
  const std::vector<std::uint8_t>& labels() const { return labels_; }

  /// True when the pair feature holds doubles (base feature of a numeric
  /// raw feature); all other features are code columns.
  bool IsNumericFeature(std::size_t pair_index) const {
    return features_[pair_index].numeric;
  }
  const std::vector<std::int64_t>& Codes(std::size_t pair_index) const {
    return features_[pair_index].codes;
  }
  const std::vector<double>& NumericValues(std::size_t pair_index) const {
    return features_[pair_index].values;
  }
  bool NumericPresent(std::size_t pair_index, std::size_t row) const {
    return features_[pair_index].present.Test(row);
  }

  /// Decodes a cell (or a code of the column) back to the exact Value of
  /// the Table 1 pair feature — used to build Atom constants.
  Value DecodeValue(std::size_t pair_index, std::size_t row) const;
  Value DecodeCode(std::size_t pair_index, std::int64_t code) const;

 private:
  struct FeatureColumn {
    bool numeric = false;
    std::vector<std::int64_t> codes;
    std::vector<double> values;
    PresenceBitmap present;
  };

  const PairSchema* schema_;
  const ColumnarLog* columns_;
  std::vector<PairRef> pairs_;
  std::vector<std::uint8_t> labels_;
  std::vector<FeatureColumn> features_;
};

/// An Atom lowered against an EncodedDataset: evaluates Atom::Matches over
/// the encoded columns without materializing Values. Exact for every
/// operator, including atoms whose constants the dictionary has never seen
/// (they match nothing for =, everything present for != of the same kind).
class EncodedAtomTest {
 public:
  EncodedAtomTest(const EncodedDataset& data, const Atom& atom);

  /// Every row of `data` the atom matches, in one pass over the column.
  RowBitmap MatchingRows(const EncodedDataset& data) const;

 private:
  std::size_t pair_index_ = 0;
  bool numeric_ = false;
  CompareOp op_ = CompareOp::kEq;
  bool always_false_ = false;
  /// Codes equal to the atom constant (several for ambiguous diff strings).
  std::vector<std::int64_t> code_targets_;
  double num_const_ = 0.0;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_ENCODED_DATASET_H_
