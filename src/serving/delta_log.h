#ifndef PERFXPLAIN_SERVING_DELTA_LOG_H_
#define PERFXPLAIN_SERVING_DELTA_LOG_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "log/execution_log.h"
#include "log/schema.h"

namespace perfxplain {

/// A batch of just `record`, moved in (a braced list would copy it).
inline std::vector<ExecutionRecord> BatchOfOne(ExecutionRecord record) {
  std::vector<ExecutionRecord> batch;
  batch.push_back(std::move(record));
  return batch;
}

/// The write side of the live-ingest split: a thread-safe, append-only
/// staging buffer of ExecutionRecords that have arrived since the serving
/// LogSnapshot was built. Appends validate against the schema (arity,
/// value kinds, non-empty unique id) and are O(1) amortized — they never
/// touch the analytical representation, so ingest can never block or
/// tear an in-flight Explain. The promoter periodically drains the buffer
/// into a fresh snapshot (LiveEngine::Rotate) using the three-phase
/// protocol below.
///
/// Drain protocol (one drainer at a time; LiveEngine serializes rotations):
///  1. BeginDrain() copies the first k pending records and marks them
///     draining. Their ids stay RESERVED: an append of a duplicate id that
///     races the promotion is rejected exactly as if the record were
///     already promoted — there is no window where a duplicate can slip
///     between snapshot swap and delta removal.
///  2a. CommitDrain() — after the new snapshot (which contains the drained
///      records) is installed — removes them from the buffer and releases
///      nothing (the ids now live in the served log, which LiveEngine
///      checks first).
///  2b. AbortDrain() — when promotion is cancelled or fails — keeps every
///      record and its reservation; the next rotation retries them.
/// Appends during a drain simply queue behind the draining prefix.
///
/// Thread safety: every method locks mutex_; the deque and id set are
/// PX_GUARDED_BY it.
class DeltaLog {
 public:
  explicit DeltaLog(Schema schema);

  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  const Schema& schema() const { return schema_; }

  /// Validates and stages one record (AppendBatch of one): value count
  /// must match the schema, values must pass CheckValueKinds (as
  /// promotion's ColumnarLog extension requires), the id must be non-empty
  /// and not already pending (including records currently draining). The
  /// caller (LiveEngine) is responsible for rejecting ids already present
  /// in the served base log.
  Status Append(ExecutionRecord record) PX_EXCLUDES(mutex_);

  /// All-or-nothing batch append: every record is validated (against the
  /// schema, the pending set, and the other records of the batch) before
  /// any is staged, so a bad record never leaves a partial batch behind.
  Status AppendBatch(std::vector<ExecutionRecord> records)
      PX_EXCLUDES(mutex_);

  /// Exactly AppendBatch's validation (schema, pending set, intra-batch
  /// duplicates) without staging anything. The durable append path runs
  /// this BEFORE journaling a batch, so a batch that would be rejected
  /// never reaches the WAL — and replay re-running the same deterministic
  /// validation reaches the same verdicts.
  Status ValidateBatch(const std::vector<ExecutionRecord>& records) const
      PX_EXCLUDES(mutex_);

  /// True when `id` is pending (staged or draining).
  bool Contains(const std::string& id) const PX_EXCLUDES(mutex_);

  /// Number of staged records (draining ones included until CommitDrain).
  std::size_t pending_rows() const PX_EXCLUDES(mutex_);

  /// Milliseconds since the oldest pending record was appended (0 when
  /// empty). Steady-clock based; drives the age threshold of
  /// RotationPolicy.
  std::int64_t oldest_pending_age_ms() const PX_EXCLUDES(mutex_);

  /// Phase 1 of the drain protocol: copies of the currently pending
  /// records, in append order, marked draining (ids stay reserved).
  /// Must not be called while another drain is open.
  std::vector<ExecutionRecord> BeginDrain() PX_EXCLUDES(mutex_);

  /// Phase 2a: drops the draining prefix (the records BeginDrain
  /// returned). Records appended after BeginDrain are kept.
  void CommitDrain() PX_EXCLUDES(mutex_);

  /// Phase 2b: cancels the drain, keeping every record and reservation.
  void AbortDrain() PX_EXCLUDES(mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ExecutionRecord record;
    Clock::time_point arrived;
  };

  Status Validate(const ExecutionRecord& record) const PX_REQUIRES(mutex_);
  /// Validate for every record plus the intra-batch duplicate check: the
  /// one validation loop of AppendBatch and ValidateBatch.
  Status ValidateLocked(const std::vector<ExecutionRecord>& records) const
      PX_REQUIRES(mutex_);

  const Schema schema_;
  mutable Mutex mutex_;
  std::deque<Pending> pending_ PX_GUARDED_BY(mutex_);
  // Ordered set: deterministic iteration (pxlint's determinism rule covers
  // src/serving) and no rehash cost on the append path's hot lock.
  std::set<std::string> ids_ PX_GUARDED_BY(mutex_);
  std::size_t draining_ PX_GUARDED_BY(mutex_) = 0;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_SERVING_DELTA_LOG_H_
