#ifndef PERFXPLAIN_LOG_EXECUTION_LOG_H_
#define PERFXPLAIN_LOG_EXECUTION_LOG_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/value.h"
#include "log/schema.h"

namespace perfxplain {

/// One logged execution (a MapReduce job or task): an identifier plus one
/// Value per schema feature. The paper's Job/Task relations (§3.1); the
/// runtime metric of interest ("duration") is itself a feature so the
/// obs/exp predicates can refer to duration_compare etc.
struct ExecutionRecord {
  std::string id;
  std::vector<Value> values;

  ExecutionRecord() = default;
  ExecutionRecord(std::string record_id, std::vector<Value> vals)
      : id(std::move(record_id)), values(std::move(vals)) {}
};

/// OK when each non-missing value has its feature's kind in `schema` (one
/// feature per value): the kind rule of ExecutionLog::Add and DeltaLog.
Status CheckValueKinds(const Schema& schema, const ExecutionRecord& record);

/// A log of past executions sharing one Schema. This is PerfXplain's only
/// input besides the PXQL query: explanations are mined from it and the
/// quality metrics are measured against it.
class ExecutionLog {
 public:
  ExecutionLog() = default;
  explicit ExecutionLog(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const ExecutionRecord& at(std::size_t i) const;
  const std::vector<ExecutionRecord>& records() const { return records_; }

  /// Appends `record`; its value count must match the schema, its values
  /// must pass CheckValueKinds and its id must be unique within the log.
  Status Add(ExecutionRecord record);

  /// Index of the record with `id`, or error when absent.
  Result<std::size_t> Find(const std::string& id) const;

  /// Value of feature `feature_index` of record `record_index`.
  const Value& ValueAt(std::size_t record_index,
                       std::size_t feature_index) const;

  /// Records for which `keep` returns true, as a new log (same schema).
  ExecutionLog Filter(
      const std::function<bool(const ExecutionRecord&)>& keep) const;

  /// Randomly assigns each record to the first log with probability
  /// `first_fraction` (2-fold split of §6.1 uses 0.5). Both halves share
  /// this log's schema.
  std::pair<ExecutionLog, ExecutionLog> RandomSplit(double first_fraction,
                                                    Rng& rng) const;

  /// Ensures `ids` are present in this log by copying them from `source`
  /// (used by the different-job experiment, §6.5, where the log consists of
  /// other jobs "plus the pair of interest"). Ids already present are kept.
  Status EnsureRecords(const ExecutionLog& source,
                       const std::vector<std::string>& ids);

  /// CSV persistence. First row: "id,<f1>,<f2>,..."; second row: feature
  /// kinds ("numeric"/"nominal"); then one row per record with a bare "?"
  /// for missing values. A quoted field always reads back as a nominal, so
  /// the nominals "" and "?" are written quoted. Every value round-trips,
  /// except that a NaN reads back as a NaN without its payload.
  Status SaveCsv(const std::string& path) const;
  static Result<ExecutionLog> LoadCsv(const std::string& path);

  /// SaveCsv's bytes as an in-memory text blob.
  std::string ToCsvText() const;

 private:
  Schema schema_;
  std::vector<ExecutionRecord> records_;
  std::unordered_map<std::string, std::size_t> by_id_;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_LOG_EXECUTION_LOG_H_
