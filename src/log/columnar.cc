#include "log/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "features/pair_schema.h"

namespace perfxplain {

namespace {

/// An unsigned integer with the order of `value` (not NaN); -0.0 and +0.0
/// share a key.
std::uint64_t OrderKey(double value) {
  if (value == 0.0) value = 0.0;
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  // Setting the sign bit lifts the positives above the negatives; flipping
  // every bit of a negative reverses its magnitude order.
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

struct OrderCell {
  std::uint64_t key;
  std::uint32_t row;
};

int BitWidth(std::uint64_t x) { return x == 0 ? 0 : 64 - __builtin_clzll(x); }

/// Stable insertion sort of [first, last) by key.
void InsertionSort(OrderCell* first, OrderCell* last) {
  for (OrderCell* i = first + 1; i < last; ++i) {
    if (!((i - 1)->key > i->key)) continue;
    const OrderCell cell = *i;
    OrderCell* j = i;
    do {
      *j = *(j - 1);
      --j;
    } while (j > first && (j - 1)->key > cell.key);
    *j = cell;
  }
}

/// Sorts the n cells of `in` by key, stably, into `out`, and leaves `in`
/// scrambled. One counting pass spreads the cells over at most n buckets
/// of the key range; small buckets are insertion-sorted in place and large
/// ones sorted the same way, with `in` as their scratch. The lowest and
/// highest keys land in different buckets, so every bucket holds fewer
/// cells than the range and the recursion ends.
void SortCells(OrderCell* in, OrderCell* out, std::size_t n) {
  if (n <= 32) {
    std::copy(in, in + n, out);
    InsertionSort(out, out + n);
    return;
  }
  std::uint64_t lo = in[0].key;
  std::uint64_t hi = lo;
  for (std::size_t k = 0; k < n; ++k) {
    lo = std::min(lo, in[k].key);
    hi = std::max(hi, in[k].key);
  }
  if (lo == hi) {
    std::copy(in, in + n, out);
    return;
  }
  const int shift = std::max(0, BitWidth(hi - lo) - BitWidth(n) + 1);
  const std::size_t buckets = static_cast<std::size_t>((hi - lo) >> shift) + 1;
  // end[b + 1] counts bucket b, then becomes its start, then its end.
  std::vector<std::uint32_t> end(buckets + 1, 0);
  for (std::size_t k = 0; k < n; ++k) ++end[((in[k].key - lo) >> shift) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) end[b] += end[b - 1];
  for (std::size_t k = 0; k < n; ++k) {
    out[end[(in[k].key - lo) >> shift]++] = in[k];
  }
  std::size_t begin = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t size = end[b] - begin;
    if (size > 32) {
      SortCells(out + begin, in + begin, size);
      std::copy(in + begin, in + end[b], out + begin);
    } else if (size > 1) {
      InsertionSort(out + begin, out + end[b]);
    }
    begin = end[b];
  }
}

/// Sets `order` to the rows of `column` (of `rows` rows) holding a
/// present, non-NaN value, by ascending value; equal values (-0.0 and +0.0
/// among them) by row. `cells` and `sorted` are scratch.
void SortRows(const NumericColumn& column, std::size_t rows,
              std::vector<OrderCell>& cells, std::vector<OrderCell>& sorted,
              std::vector<std::uint32_t>& order) {
  // Branch-free compaction: every row is written at the cursor, which
  // advances only past present, non-NaN cells.
  cells.resize(rows);
  std::size_t n = 0;
  for (std::size_t row = 0; row < rows; ++row) {
    const double value = column.values[row];
    cells[n] = {OrderKey(value), static_cast<std::uint32_t>(row)};
    n += column.present.Test(row) & !std::isnan(value);
  }
  bool ascending = true;
  for (std::size_t k = 1; k < n; ++k) {
    ascending &= cells[k - 1].key <= cells[k].key;
  }
  const OrderCell* result = cells.data();
  if (!ascending) {
    sorted.resize(n);
    SortCells(cells.data(), sorted.data(), n);
    result = sorted.data();
  }
  order.resize(n);
  for (std::size_t k = 0; k < n; ++k) order[k] = result[k].row;
}

}  // namespace

StringInterner::StringInterner() {
  Intern(pair_values::kTrue);
  Intern(pair_values::kFalse);
  Intern(pair_values::kLt);
  Intern(pair_values::kSim);
  Intern(pair_values::kGt);
}

StringInterner StringInterner::Clone() const {
  StringInterner clone;
  // The default constructor pre-interns the canonical levels, which are the
  // first entries of strings_; replaying the deque in order is idempotent
  // for them and reproduces every code assignment exactly.
  for (const std::string& s : strings_) clone.Intern(s);
  return clone;
}

std::int32_t StringInterner::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const auto code = static_cast<std::int32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(std::string_view(strings_.back()), code);
  return code;
}

std::int32_t StringInterner::Lookup(std::string_view s) const {
  auto it = index_.find(s);
  return it == index_.end() ? kNoCode : it->second;
}

const std::string& StringInterner::StringOf(std::int32_t code) const {
  PX_CHECK_GE(code, 0);
  PX_CHECK_LT(static_cast<std::size_t>(code), strings_.size());
  return strings_[static_cast<std::size_t>(code)];
}

void ColumnarLog::AllocateColumns() {
  const std::size_t k = schema_.size();
  slot_.resize(k);
  for (std::size_t col = 0; col < k; ++col) {
    if (is_numeric(col)) {
      slot_[col] = static_cast<std::int32_t>(numeric_.size());
      NumericColumn column;
      column.values.assign(rows_, 0.0);
      column.present = PresenceBitmap(rows_);
      numeric_.push_back(std::move(column));
    } else {
      slot_[col] = static_cast<std::int32_t>(nominal_.size());
      NominalColumn column;
      column.codes.assign(rows_, StringInterner::kNoCode);
      nominal_.push_back(std::move(column));
    }
  }
}

void ColumnarLog::IngestRecord(std::size_t row, const ExecutionRecord& record) {
  const std::size_t k = schema_.size();
  for (std::size_t col = 0; col < k; ++col) {
    const Value& v = record.values[col];
    if (v.is_missing()) continue;
    if (is_numeric(col)) {
      NumericColumn& column = numeric_[static_cast<std::size_t>(slot_[col])];
      column.values[row] = v.number();
      column.present.Set(row);
    } else {
      nominal_[static_cast<std::size_t>(slot_[col])].codes[row] =
          interner_.Intern(v.nominal());
    }
  }
}

ColumnarLog::ColumnarLog(const ExecutionLog& log)
    : schema_(log.schema()), rows_(log.size()) {
  AllocateColumns();
  for (std::size_t row = 0; row < rows_; ++row) {
    IngestRecord(row, log.at(row));
  }
  BuildValueOrders();
}

ColumnarLog::ColumnarLog(const Schema& schema,
                         std::initializer_list<const ExecutionRecord*> records)
    : schema_(schema), rows_(records.size()) {
  AllocateColumns();
  std::size_t row = 0;
  for (const ExecutionRecord* record : records) {
    PX_CHECK(record != nullptr);
    PX_CHECK_EQ(record->values.size(), schema_.size())
        << "record does not match the schema";
    IngestRecord(row++, *record);
  }
  BuildValueOrders();
}

ColumnarLog::ColumnarLog(const ColumnarLog& base, const ExecutionLog& full_log)
    : schema_(base.schema_),
      rows_(full_log.size()),
      slot_(base.slot_),
      numeric_(base.numeric_),
      nominal_(base.nominal_),
      interner_(base.interner_.Clone()) {
  PX_CHECK_GE(rows_, base.rows_) << "extension log shrank";
  PX_CHECK_EQ(full_log.schema().size(), schema_.size())
      << "extension log schema mismatch";
  for (NumericColumn& column : numeric_) {
    column.values.resize(rows_, 0.0);
    column.present.Resize(rows_);
  }
  for (NominalColumn& column : nominal_) {
    column.codes.resize(rows_, StringInterner::kNoCode);
  }
  for (std::size_t row = base.rows_; row < rows_; ++row) {
    IngestRecord(row, full_log.at(row));
  }
  BuildValueOrders();
}

void ColumnarLog::BuildValueOrders() {
  PX_CHECK_LE(rows_, std::numeric_limits<std::uint32_t>::max());
  value_orders_.resize(numeric_.size());
  std::vector<OrderCell> cells;
  std::vector<OrderCell> sorted;
  for (std::size_t i = 0; i < numeric_.size(); ++i) {
    SortRows(numeric_[i], rows_, cells, sorted, value_orders_[i]);
  }
}

const NumericColumn& ColumnarLog::numeric_column(std::size_t col) const {
  PX_CHECK(is_numeric(col));
  return numeric_[static_cast<std::size_t>(slot_[col])];
}

const std::vector<std::uint32_t>& ColumnarLog::ValueOrder(
    std::size_t col) const {
  PX_CHECK(is_numeric(col));
  return value_orders_[static_cast<std::size_t>(slot_[col])];
}

const NominalColumn& ColumnarLog::nominal_column(std::size_t col) const {
  PX_CHECK(!is_numeric(col));
  return nominal_[static_cast<std::size_t>(slot_[col])];
}

Value ColumnarLog::ValueAt(std::size_t row, std::size_t col) const {
  PX_CHECK_LT(row, rows_);
  if (is_numeric(col)) {
    const NumericColumn& column = numeric_column(col);
    if (!column.present.Test(row)) return Value::Missing();
    return Value::Number(column.values[row]);
  }
  const std::int32_t code = nominal_column(col).codes[row];
  if (code == StringInterner::kNoCode) return Value::Missing();
  return Value::Nominal(interner_.StringOf(code));
}

}  // namespace perfxplain
