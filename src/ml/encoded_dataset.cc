#include "ml/encoded_dataset.h"

#include <algorithm>

#include "features/pair_feature_kernel.h"
#include "pxql/compiled_predicate.h"

namespace perfxplain {

EncodedDataset::EncodedDataset(const ColumnarLog& columns,
                               const PairSchema& schema,
                               const std::vector<PairRef>& pairs,
                               double sim_fraction)
    : schema_(&schema),
      columns_(&columns),
      pairs_(pairs) {
  const std::size_t m = pairs_.size();
  labels_.reserve(m);
  for (const PairRef& pair : pairs_) {
    labels_.push_back(pair.observed ? 1 : 0);
  }

  features_.resize(schema.size());
  for (std::size_t f = 0; f < schema.size(); ++f) {
    FeatureColumn& column = features_[f];
    const std::size_t raw = schema.RawIndexOf(f);
    const bool numeric_raw = columns.is_numeric(raw);
    const PairFeatureKind kind = schema.KindOf(f);
    column.numeric = kind == PairFeatureKind::kBase && numeric_raw;
    if (column.numeric) {
      const NumericColumn& c = columns.numeric_column(raw);
      column.values.assign(m, 0.0);
      column.present = PresenceBitmap(m);
      for (std::size_t r = 0; r < m; ++r) {
        const kernel::BaseNumericResult base = kernel::BaseNumeric(
            c.present.Test(pairs_[r].first), c.values[pairs_[r].first],
            c.present.Test(pairs_[r].second), c.values[pairs_[r].second]);
        if (base.present) {
          column.values[r] = base.value;
          column.present.Set(r);
        }
      }
      continue;
    }
    column.codes.assign(m, -1);
    switch (kind) {
      case PairFeatureKind::kIsSame:
        if (numeric_raw) {
          const NumericColumn& c = columns.numeric_column(raw);
          for (std::size_t r = 0; r < m; ++r) {
            column.codes[r] = kernel::IsSameNumeric(
                c.present.Test(pairs_[r].first), c.values[pairs_[r].first],
                c.present.Test(pairs_[r].second), c.values[pairs_[r].second],
                sim_fraction);
          }
        } else {
          const NominalColumn& c = columns.nominal_column(raw);
          for (std::size_t r = 0; r < m; ++r) {
            column.codes[r] = kernel::IsSameNominal(
                c.codes[pairs_[r].first], c.codes[pairs_[r].second]);
          }
        }
        break;
      case PairFeatureKind::kCompare:
        if (numeric_raw) {
          const NumericColumn& c = columns.numeric_column(raw);
          for (std::size_t r = 0; r < m; ++r) {
            column.codes[r] = kernel::CompareNumeric(
                c.present.Test(pairs_[r].first), c.values[pairs_[r].first],
                c.present.Test(pairs_[r].second), c.values[pairs_[r].second],
                sim_fraction);
          }
        }
        // Nominal raw feature: compare is undefined; stays all-missing.
        break;
      case PairFeatureKind::kDiff:
        if (!numeric_raw) {
          const NominalColumn& c = columns.nominal_column(raw);
          for (std::size_t r = 0; r < m; ++r) {
            column.codes[r] = kernel::DiffPacked(c.codes[pairs_[r].first],
                                                 c.codes[pairs_[r].second]);
          }
        }
        break;
      case PairFeatureKind::kBase: {
        const NominalColumn& c = columns.nominal_column(raw);
        for (std::size_t r = 0; r < m; ++r) {
          column.codes[r] = kernel::BaseNominal(c.codes[pairs_[r].first],
                                                c.codes[pairs_[r].second]);
        }
        break;
      }
    }
  }
}

Value EncodedDataset::DecodeValue(std::size_t pair_index,
                                  std::size_t row) const {
  const FeatureColumn& column = features_[pair_index];
  if (column.numeric) {
    if (!column.present.Test(row)) return Value::Missing();
    return Value::Number(column.values[row]);
  }
  return DecodeCode(pair_index, column.codes[row]);
}

Value EncodedDataset::DecodeCode(std::size_t pair_index,
                                 std::int64_t code) const {
  if (code < 0) return Value::Missing();
  switch (schema_->KindOf(pair_index)) {
    case PairFeatureKind::kIsSame:
      return DecodeIsSame(static_cast<std::int8_t>(code));
    case PairFeatureKind::kCompare:
      return DecodeCompare(static_cast<std::int8_t>(code));
    case PairFeatureKind::kDiff:
      return DecodeDiff(code, interner());
    case PairFeatureKind::kBase:
      return DecodeBaseNominal(static_cast<std::int32_t>(code), interner());
  }
  return Value::Missing();
}

EncodedAtomTest::EncodedAtomTest(const EncodedDataset& data,
                                 const Atom& atom) {
  PX_CHECK(atom.bound()) << "encoded test needs a bound atom: "
                         << atom.feature();
  pair_index_ = atom.pair_index();
  numeric_ = data.IsNumericFeature(pair_index_);
  op_ = atom.op();
  const Value& constant = atom.constant();
  const bool ordering = op_ != CompareOp::kEq && op_ != CompareOp::kNe;

  if (numeric_) {
    if (!constant.is_numeric()) {
      always_false_ = true;  // kind mismatch (or missing constant)
      return;
    }
    num_const_ = constant.number();
    return;
  }

  // Nominal-valued feature: ordering operators and non-nominal constants
  // can never match.
  if (ordering || !constant.is_nominal()) {
    always_false_ = true;
    return;
  }
  // The constant lowering is shared with the predicate compiler
  // (compiled_predicate.cc), so both fast paths resolve the categorical
  // domains identically.
  const StringInterner& interner = data.interner();
  switch (data.schema().KindOf(pair_index_)) {
    case PairFeatureKind::kIsSame: {
      const std::int8_t target = IsSameConstantTarget(constant);
      if (target >= 0) code_targets_.push_back(target);
      break;
    }
    case PairFeatureKind::kCompare: {
      const std::int8_t target = CompareConstantTarget(constant);
      if (target >= 0) code_targets_.push_back(target);
      break;
    }
    case PairFeatureKind::kDiff:
      for (const auto& [left, right] :
           DiffConstantTargets(constant, interner)) {
        code_targets_.push_back(kernel::DiffPacked(left, right));
      }
      break;
    case PairFeatureKind::kBase: {
      const std::int32_t code = interner.Lookup(constant.nominal());
      if (code != StringInterner::kNoCode) code_targets_.push_back(code);
      break;
    }
  }
  // Equality against a constant no cell can encode is statically false;
  // inequality of a same-kind constant matches every present cell.
  if (op_ == CompareOp::kEq && code_targets_.empty()) always_false_ = true;
}

RowBitmap EncodedAtomTest::MatchingRows(const EncodedDataset& data) const {
  const std::size_t n = data.rows();
  RowBitmap rows((n + 63) / 64, 0);
  if (always_false_) return rows;
  // Each word is accumulated in a register: OR-ing bits into memory row by
  // row would chain every row on a store-to-load round trip.
  const auto fill = [&rows, n](auto matches) {
    for (std::size_t w = 0; w < rows.size(); ++w) {
      const std::size_t end = std::min(n, (w + 1) * 64);
      std::uint64_t bits = 0;
      for (std::size_t r = w * 64; r < end; ++r) {
        bits |= static_cast<std::uint64_t>(matches(r)) << (r & 63);
      }
      rows[w] = bits;
    }
  };
  if (numeric_) {
    const std::vector<double>& values = data.NumericValues(pair_index_);
    fill([&](std::size_t r) {
      return data.NumericPresent(pair_index_, r) &&
             CompareDoubles(op_, values[r], num_const_);
    });
    return rows;
  }
  const std::vector<std::int64_t>& codes = data.Codes(pair_index_);
  const bool want = op_ == CompareOp::kEq;
  if (code_targets_.size() == 1) {
    const std::int64_t target = code_targets_[0];
    fill([&](std::size_t r) {
      return codes[r] >= 0 && (codes[r] == target) == want;
    });
    return rows;
  }
  fill([&](std::size_t r) {
    const std::int64_t code = codes[r];
    return code >= 0 && (std::find(code_targets_.begin(), code_targets_.end(),
                                   code) != code_targets_.end()) == want;
  });
  return rows;
}

}  // namespace perfxplain
