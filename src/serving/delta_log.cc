#include "serving/delta_log.h"

#include <utility>

#include "common/logging.h"

namespace perfxplain {

DeltaLog::DeltaLog(Schema schema) : schema_(std::move(schema)) {}

Status DeltaLog::Validate(const ExecutionRecord& record) const {
  if (record.id.empty()) {
    return Status::InvalidArgument("record id must not be empty");
  }
  if (record.values.size() != schema_.size()) {
    return Status::InvalidArgument(
        "record '" + record.id + "' has " +
        std::to_string(record.values.size()) + " values; schema expects " +
        std::to_string(schema_.size()));
  }
  PX_RETURN_IF_ERROR(CheckValueKinds(schema_, record));
  if (ids_.count(record.id) > 0) {
    return Status::InvalidArgument("record id '" + record.id +
                                   "' is already pending");
  }
  return Status::OK();
}

Status DeltaLog::ValidateLocked(
    const std::vector<ExecutionRecord>& records) const {
  std::set<std::string> batch_ids;
  for (const ExecutionRecord& record : records) {
    PX_RETURN_IF_ERROR(Validate(record));
    if (!batch_ids.insert(record.id).second) {
      return Status::InvalidArgument("record id '" + record.id +
                                     "' appears twice in the batch");
    }
  }
  return Status::OK();
}

Status DeltaLog::Append(ExecutionRecord record) {
  return AppendBatch(BatchOfOne(std::move(record)));
}

Status DeltaLog::AppendBatch(std::vector<ExecutionRecord> records) {
  MutexLock lock(mutex_);
  // Validate the whole batch (including intra-batch duplicates) before
  // staging anything, so a bad record never leaves a partial batch.
  PX_RETURN_IF_ERROR(ValidateLocked(records));
  const Clock::time_point now = Clock::now();
  for (ExecutionRecord& record : records) {
    ids_.insert(record.id);
    pending_.push_back(Pending{std::move(record), now});
  }
  return Status::OK();
}

Status DeltaLog::ValidateBatch(
    const std::vector<ExecutionRecord>& records) const {
  MutexLock lock(mutex_);
  return ValidateLocked(records);
}

bool DeltaLog::Contains(const std::string& id) const {
  MutexLock lock(mutex_);
  return ids_.count(id) > 0;
}

std::size_t DeltaLog::pending_rows() const {
  MutexLock lock(mutex_);
  return pending_.size();
}

std::int64_t DeltaLog::oldest_pending_age_ms() const {
  MutexLock lock(mutex_);
  if (pending_.empty()) return 0;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - pending_.front().arrived)
      .count();
}

std::vector<ExecutionRecord> DeltaLog::BeginDrain() {
  MutexLock lock(mutex_);
  PX_CHECK_EQ(draining_, std::size_t{0}) << "a drain is already open";
  draining_ = pending_.size();
  std::vector<ExecutionRecord> drained;
  drained.reserve(draining_);
  for (std::size_t i = 0; i < draining_; ++i) {
    drained.push_back(pending_[i].record);
  }
  return drained;
}

void DeltaLog::CommitDrain() {
  MutexLock lock(mutex_);
  for (std::size_t i = 0; i < draining_; ++i) {
    ids_.erase(pending_.front().record.id);
    pending_.pop_front();
  }
  draining_ = 0;
}

void DeltaLog::AbortDrain() {
  MutexLock lock(mutex_);
  draining_ = 0;
}

}  // namespace perfxplain
