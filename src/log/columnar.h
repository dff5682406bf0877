#ifndef PERFXPLAIN_LOG_COLUMNAR_H_
#define PERFXPLAIN_LOG_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "log/execution_log.h"
#include "log/schema.h"

namespace perfxplain {

/// Interns nominal strings to dense int32 codes. One interner is shared by
/// every nominal column of a ColumnarLog, so equal strings always map to
/// equal codes and string equality reduces to integer equality.
class StringInterner {
 public:
  static constexpr std::int32_t kNoCode = -1;

  /// The canonical categorical levels of Table 1 ("T", "F", "LT", "SIM",
  /// "GT") are pre-interned, in that order, so kernels can reference their
  /// codes without lookups.
  StringInterner();

  // Copying would leave the map's string_view keys pointing into the
  // source's deque. Moves are fine: deque elements never relocate.
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Deep copy with the index rebuilt against the copied deque. Because
  /// interning is append-only, a clone extended by the same string sequence
  /// assigns the same codes the source would — the property that lets an
  /// incremental ColumnarLog extension stay bitwise-equal to a cold rebuild.
  StringInterner Clone() const;

  /// Returns the code of `s`, inserting it if absent.
  std::int32_t Intern(std::string_view s);

  /// Returns the code of `s`, or kNoCode when it was never interned.
  std::int32_t Lookup(std::string_view s) const;

  const std::string& StringOf(std::int32_t code) const;
  std::size_t size() const { return strings_.size(); }

  std::int32_t true_code() const { return 0; }
  std::int32_t false_code() const { return 1; }
  std::int32_t lt_code() const { return 2; }
  std::int32_t sim_code() const { return 3; }
  std::int32_t gt_code() const { return 4; }

 private:
  // Deque: element addresses are stable under push_back, so the map's
  // string_view keys can point into the stored strings.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, std::int32_t> index_;
};

/// Presence bitmap of one column: bit r set = row r has a value.
class PresenceBitmap {
 public:
  PresenceBitmap() = default;
  explicit PresenceBitmap(std::size_t rows) : words_((rows + 63) / 64, 0) {}

  void Set(std::size_t row) {
    words_[row >> 6] |= std::uint64_t{1} << (row & 63);
  }
  bool Test(std::size_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }

  /// Grows the bitmap to cover `rows` rows, preserving existing bits. New
  /// rows start absent. Shrinking is not supported.
  void Resize(std::size_t rows) {
    const std::size_t words = (rows + 63) / 64;
    if (words > words_.size()) words_.resize(words, 0);
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// A numeric raw feature as a contiguous double array. Missing rows hold
/// 0.0 and are excluded via the presence bitmap.
struct NumericColumn {
  std::vector<double> values;
  PresenceBitmap present;
};

/// A nominal raw feature dictionary-encoded against the shared interner.
/// Missing rows hold StringInterner::kNoCode.
struct NominalColumn {
  std::vector<std::int32_t> codes;
};

/// An ordered pair of rows plus its Definition 8/9 label, as produced by
/// the columnar pair-enumeration fast path and consumed by the encoded
/// training-matrix builder. Rows are 32-bit (a ColumnarLog holds at most
/// UINT32_MAX rows), so a pair takes 12 bytes.
struct PairRef {
  PairRef() = default;
  PairRef(std::size_t first_row, std::size_t second_row, bool observed_pair)
      : first(static_cast<std::uint32_t>(first_row)),
        second(static_cast<std::uint32_t>(second_row)),
        observed(observed_pair) {}

  std::uint32_t first = 0;
  std::uint32_t second = 0;
  bool observed = false;
};

/// Column-oriented, dictionary-encoded form of a log of executions: the one
/// copy of the log a LogSnapshot holds. The pair-feature kernels and
/// compiled PXQL predicates scan it; Record and ToLog decode it back to
/// records bit for bit where a row form is needed.
///
/// Layout and value semantics:
///  - Record ids in row order, with a hash index behind Find.
///  - Numeric feature f -> NumericColumn: `values[row]` is the raw double,
///    `present` the missing bitmap. A missing cell stores 0.0 with its
///    presence bit clear — consumers must test presence before reading.
///    NaN is *data*, not missingness: a NaN cell is present, and the
///    kernels give it Value's NaN behavior (NaN is similar to nothing,
///    never equal to itself).
///    ValueOrder lists its present, non-NaN rows by ascending value.
///  - Nominal feature f -> NominalColumn: `codes[row]` is the dense code
///    of the string in the shared StringInterner, or kNoCode when the
///    cell is missing. All nominal columns share one interner, so string
///    equality (even across columns) is integer code equality.
///
/// Thread safety: immutable after construction, value orders included;
/// any number of threads may scan one ColumnarLog concurrently (the
/// row-striped enumerations and the striped RReliefF probe loop do exactly
/// that). The column accessors return stable references — compiled
/// predicate programs cache the raw pointers, so a ColumnarLog must outlive
/// every program compiled against it.
class ColumnarLog {
 public:
  explicit ColumnarLog(const ExecutionLog& log);

  /// Columnar form of a handful of ad-hoc records (not necessarily from any
  /// log; duplicate ids are fine, and Find returns the first). Each
  /// record's value count must match `schema`. Row r of the result is
  /// records[r]. Used by IsApplicable to evaluate compiled predicates over
  /// one record pair.
  ColumnarLog(const Schema& schema,
              const std::vector<ExecutionRecord>& records);

  /// `base` with `appended` ingested after its rows: base's columns are
  /// copied and only the new records encoded. Each record must match the
  /// schema, pass CheckValueKinds and carry an id new to the log. Because
  /// the interner is append-only, the result is bitwise identical to a
  /// cold build of base's records followed by `appended` — same codes,
  /// same column contents.
  ColumnarLog(const ColumnarLog& base,
              const std::vector<ExecutionRecord>& appended);

  std::size_t rows() const { return rows_; }
  const Schema& schema() const { return schema_; }
  const StringInterner& interner() const { return interner_; }

  bool is_numeric(std::size_t col) const {
    return schema_.at(col).kind == ValueKind::kNumeric;
  }
  const NumericColumn& numeric_column(std::size_t col) const;
  const NominalColumn& nominal_column(std::size_t col) const;

  /// The rows of numeric column `col` holding a present, non-NaN value, in
  /// ascending value order; equal values (-0.0 and +0.0 among them) in
  /// ascending row order. Every constructor sorts the orders of all
  /// numeric columns from their cells, so an incremental extension and a
  /// cold build give the same ones.
  const std::vector<std::uint32_t>& ValueOrder(std::size_t col) const;

  /// Decodes one cell back to a Value (tests and diagnostics; the hot paths
  /// never materialize Values).
  Value ValueAt(std::size_t row, std::size_t col) const;

  /// Row of the record with `id`, or NotFound when absent.
  Result<std::size_t> Find(const std::string& id) const;

  /// The record of row `row`, decoded bit for bit.
  ExecutionRecord Record(std::size_t row) const;

  /// Every row decoded back to an ExecutionLog, in row order.
  ExecutionLog ToLog() const;

 private:
  /// Creates the (empty) column pools of `schema_`.
  void AllocateColumns();
  /// The ingest loop of every constructor: grows the columns by the rows
  /// of `records`, encodes and indexes each record, and rebuilds the value
  /// orders.
  void Append(const std::vector<ExecutionRecord>& records, bool unique_ids);
  /// Encodes one record into row `row` of the columns.
  void IngestRecord(std::size_t row, const ExecutionRecord& record);
  /// Builds value_orders_ from the columns' cells.
  void BuildValueOrders();

  Schema schema_;
  std::size_t rows_ = 0;
  std::vector<std::int32_t> slot_;  ///< per raw column: index into a pool
  std::vector<NumericColumn> numeric_;
  std::vector<NominalColumn> nominal_;
  StringInterner interner_;
  /// ValueOrder of each numeric column, in numeric_ order.
  std::vector<std::vector<std::uint32_t>> value_orders_;
  std::vector<std::string> ids_;  ///< per row
  std::unordered_map<std::string, std::size_t> row_of_;  ///< id -> first row
};

/// `*columns`, checked to be non-null: for constructors that read the
/// columns in their initializer list.
const ColumnarLog& CheckedColumns(const ColumnarLog* columns);

}  // namespace perfxplain

#endif  // PERFXPLAIN_LOG_COLUMNAR_H_
