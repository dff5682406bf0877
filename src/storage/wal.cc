#include "storage/wal.h"

#include <algorithm>
#include <utility>

#include "common/cancel.h"
#include "storage/frame.h"

namespace perfxplain {

const char kWalMagic[9] = "PXWAL001";

namespace {

constexpr std::size_t kMagicBytes = 8;

Status CorruptAt(const std::string& file, std::uint64_t offset,
                 const std::string& what) {
  return Status::IoError("corrupt WAL segment '" + file + "' at offset " +
                         std::to_string(offset) + ": " + what);
}

std::optional<std::uint64_t> SegmentIndex(const std::string& name) {
  return NumberedFileIndex(name, "wal-", ".log");
}

}  // namespace

std::string WalSegmentFileName(std::uint64_t index) {
  return NumberedFileName("wal-", index, ".log");
}

WalWriter::WalWriter(std::string dir, WalOptions options,
                     std::uint64_t next_sequence,
                     std::vector<WalSegmentInfo> sealed, FileSystem* fs)
    : dir_(std::move(dir)),
      options_(options),
      fs_(fs),
      next_sequence_(next_sequence),
      sealed_(std::move(sealed)) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& dir, const WalOptions& options,
    std::uint64_t next_sequence, std::vector<WalSegmentInfo> sealed,
    FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  if (next_sequence == 0) {
    return Status::InvalidArgument("WAL sequences start at 1");
  }
  PX_RETURN_IF_ERROR(fs->CreateDirs(dir));
  std::uint64_t max_index = 0;
  Result<std::vector<std::string>> names = fs->ListDir(dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    max_index = std::max(max_index, SegmentIndex(name).value_or(0));
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, options, next_sequence, std::move(sealed), fs));
  MutexLock lock(writer->mutex_);
  writer->current_index_ = max_index;
  PX_RETURN_IF_ERROR(writer->RotateSegmentLocked());
  return writer;
}

Status WalWriter::RotateSegmentLocked() {
  if (current_ != nullptr) {
    // Seal the old segment: make its tail durable before anything points
    // past it, then remember its coverage for TruncateThrough.
    WritableFile* file = current_.get();
    Status synced = options_.fsync == FsyncMode::kNone
                        ? Status::OK()
                        : RetryTransient(options_.retry,
                                         [file] { return file->Sync(); });
    if (!synced.ok()) return synced;
    PX_RETURN_IF_ERROR(current_->Close());
    sealed_.push_back(WalSegmentInfo{current_name_, current_last_sequence_});
    current_.reset();
  }
  current_index_ += 1;
  const std::string name = WalSegmentFileName(current_index_);
  Result<std::unique_ptr<WritableFile>> file =
      fs_->OpenForAppend(dir_ + "/" + name);
  if (!file.ok()) return file.status();
  current_ = std::move(*file);
  current_name_ = name;
  current_bytes_ = 0;
  current_last_sequence_ = 0;
  poisoned_ = false;
  PX_RETURN_IF_ERROR(WriteLocked(std::string(kWalMagic, kMagicBytes)));
  // A segment that exists but whose directory entry is not durable would
  // vanish on power loss along with everything in it; one dir fsync per
  // rotation closes that window.
  PX_RETURN_IF_ERROR(current_->Sync());
  return fs_->SyncDir(dir_);
}

Status WalWriter::WriteLocked(const std::string& data) {
  WritableFile* file = current_.get();
  Status written = RetryTransient(options_.retry,
                                  [file, &data] { return file->Append(data); });
  if (written.ok()) {
    current_bytes_ += data.size();
  } else {
    poisoned_ = true;
  }
  return written;
}

Status WalWriter::MaybeSyncLocked() {
  bool barrier = false;
  switch (options_.fsync) {
    case FsyncMode::kEveryBatch:
      barrier = true;
      break;
    case FsyncMode::kEveryN:
      batches_since_sync_ += 1;
      barrier = batches_since_sync_ >= std::max(1, options_.fsync_every_n);
      break;
    case FsyncMode::kNone:
      break;
  }
  if (!barrier) return Status::OK();
  WritableFile* file = current_.get();
  Status synced =
      RetryTransient(options_.retry, [file] { return file->Sync(); });
  if (synced.ok()) {
    batches_since_sync_ = 0;
  } else {
    poisoned_ = true;
  }
  return synced;
}

Result<std::uint64_t> WalWriter::AppendBatch(
    const std::vector<ExecutionRecord>& records) {
  if (records.empty()) {
    return Status::InvalidArgument("WAL batch must not be empty");
  }
  MutexLock lock(mutex_);
  if (current_ == nullptr) {
    return Status::FailedPrecondition("WAL writer has no open segment");
  }
  if (poisoned_ || current_bytes_ >= options_.segment_bytes) {
    PX_RETURN_IF_ERROR(RotateSegmentLocked());
  }
  const std::uint64_t sequence = next_sequence_;
  std::string frames;
  std::string payload;
  for (const ExecutionRecord& record : records) {
    payload.clear();
    SerializeRecord(record, payload);
    AppendFrame(frames, kFrameRecord, payload);
  }
  payload.clear();
  PutU64(payload, sequence);
  PutU32(payload, static_cast<std::uint32_t>(records.size()));
  AppendFrame(frames, kFrameCommit, payload);
  PX_RETURN_IF_ERROR(WriteLocked(frames));
  // The write succeeded, so the commit frame for `sequence` is in the
  // file (if not yet durable) — the sequence is consumed NOW, even if
  // the barrier below fails. Were it reused, the retry's commit frame
  // would duplicate this one and replay would refuse the whole journal
  // as corrupt ("committed sequences are consecutive"). A duplicate
  // cannot arise from the write-failure path above: the commit frame is
  // the suffix of `frames`, so a failed append never completes it. And
  // a burned sequence cannot leave a durable gap: rotation fsyncs this
  // poisoned segment before sealing it, so no later sequence commits
  // until this one's fate is on disk. The batch is simply never
  // acknowledged; like any torn write, it may or may not survive a
  // crash, and replay handles both.
  next_sequence_ = sequence + 1;
  current_last_sequence_ = sequence;
  PX_RETURN_IF_ERROR(MaybeSyncLocked());
  return sequence;
}

Status WalWriter::AppendDrainCommit(std::uint64_t through_sequence,
                                    std::uint64_t generation) {
  MutexLock lock(mutex_);
  if (current_ == nullptr) {
    return Status::FailedPrecondition("WAL writer has no open segment");
  }
  if (poisoned_ || current_bytes_ >= options_.segment_bytes) {
    PX_RETURN_IF_ERROR(RotateSegmentLocked());
  }
  std::string frames;
  std::string payload;
  PutU64(payload, through_sequence);
  PutU64(payload, generation);
  AppendFrame(frames, kFrameDrainCommit, payload);
  PX_RETURN_IF_ERROR(WriteLocked(frames));
  return MaybeSyncLocked();
}

Status WalWriter::TruncateThrough(std::uint64_t sequence) {
  MutexLock lock(mutex_);
  std::vector<WalSegmentInfo> kept;
  Status first_error;
  for (const WalSegmentInfo& segment : sealed_) {
    if (segment.last_sequence <= sequence) {
      Status removed = fs_->RemoveFile(dir_ + "/" + segment.file_name);
      if (removed.ok()) continue;
      if (first_error.ok()) first_error = removed;
    }
    kept.push_back(segment);
  }
  sealed_ = std::move(kept);
  PX_RETURN_IF_ERROR(first_error);
  return fs_->SyncDir(dir_);
}

std::uint64_t WalWriter::next_sequence() const {
  MutexLock lock(mutex_);
  return next_sequence_;
}

Result<WalReplayResult> WalReader::Replay(const std::string& dir,
                                          std::uint64_t after_sequence,
                                          FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  WalReplayResult result;
  Result<bool> exists = fs->FileExists(dir);
  if (!exists.ok()) return exists.status();
  if (!*exists) return result;
  Result<std::vector<std::string>> names = fs->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    if (auto index = SegmentIndex(name)) segments.emplace_back(*index, name);
  }
  // Write order is numeric index order, which diverges from ListDir's
  // lexicographic order once indices outgrow the 6-digit zero padding
  // ("wal-1000000.log" sorts before "wal-999999.log").
  std::sort(segments.begin(), segments.end());

  try {
    for (std::size_t seg = 0; seg < segments.size(); ++seg) {
      const std::string& name = segments[seg].second;
      const bool is_last = seg + 1 == segments.size();
      Result<std::string> contents = fs->ReadFile(dir + "/" + name);
      if (!contents.ok()) return contents.status();
      const std::string& data = *contents;
      WalSegmentInfo info;
      info.file_name = name;

      // A zero-length segment is benign: created (or truncated back to
      // nothing by a previous recovery) before any frame survived.
      if (data.empty()) {
        result.segments.push_back(info);
        continue;
      }
      if (data.size() < kMagicBytes) {
        // Torn during segment creation: the magic write died partway, so
        // nothing committed lives here. Like any torn tail this is legal
        // in ANY segment — the writer poisons the stub and rotates
        // onward, sealing it in place — and the consecutive-sequence
        // check below would expose a committed batch it had destroyed.
        // Only the youngest stub needs the truncate-back bookkeeping.
        if (is_last) {
          result.tail_truncated = true;
          result.truncated_file = name;
          result.truncate_offset = 0;
        }
        result.segments.push_back(info);
        continue;
      }
      if (data.compare(0, kMagicBytes, kWalMagic, kMagicBytes) != 0) {
        return CorruptAt(name, 0, "bad segment magic");
      }

      std::size_t offset = kMagicBytes;
      // End of the last fully committed batch; a torn tail is cut here.
      std::size_t committed_end = offset;
      std::vector<ExecutionRecord> pending;
      bool torn = false;
      while (offset < data.size()) {
        ThrowIfInterrupted();
        const Frame frame = ReadFrame(data, offset);
        if (frame.state == Frame::State::kTorn) {
          torn = true;  // the header or payload ran past EOF mid-write
          break;
        }
        if (frame.state == Frame::State::kCorrupt) {
          return CorruptAt(name, offset, frame.what);
        }
        PayloadCursor cursor = frame.payload;
        switch (frame.type) {
          case kFrameRecord: {
            ExecutionRecord record;
            if (!ParseRecord(cursor, &record)) {
              return CorruptAt(name, offset, "malformed record frame");
            }
            pending.push_back(std::move(record));
            break;
          }
          case kFrameCommit: {
            std::uint64_t sequence = 0;
            std::uint32_t count = 0;
            if (!cursor.TakeU64(&sequence) || !cursor.TakeU32(&count) ||
                !cursor.exhausted()) {
              return CorruptAt(name, offset, "malformed commit frame");
            }
            if (count != pending.size()) {
              return CorruptAt(
                  name, offset,
                  "commit frame expects " + std::to_string(count) +
                      " records but " + std::to_string(pending.size()) +
                      " precede it");
            }
            if (sequence == 0) {
              return CorruptAt(name, offset, "batch sequence 0 is invalid");
            }
            // Committed sequences are consecutive by construction (the
            // writer advances next_sequence_ only on a successful
            // commit), and segments are only deleted once a checkpoint
            // covers them — so a gap here means a committed,
            // acknowledged batch was destroyed. This is what makes a
            // tolerated torn tail in a sealed segment safe: if the tear
            // had eaten a committed batch, the next commit exposes it.
            if (result.last_sequence != 0 &&
                sequence != result.last_sequence + 1) {
              return CorruptAt(
                  name, offset,
                  "batch sequence " + std::to_string(sequence) +
                      " after " + std::to_string(result.last_sequence) +
                      "; committed sequences are consecutive");
            }
            if (result.last_sequence == 0 &&
                sequence > after_sequence + 1) {
              return CorruptAt(
                  name, offset,
                  "first batch sequence " + std::to_string(sequence) +
                      " but the checkpoint only covers through " +
                      std::to_string(after_sequence) +
                      "; committed batches are missing");
            }
            result.last_sequence = sequence;
            info.last_sequence = sequence;
            if (sequence > after_sequence) {
              WalBatch batch;
              batch.sequence = sequence;
              batch.records = std::move(pending);
              result.batches.push_back(std::move(batch));
            }
            pending.clear();
            committed_end = frame.end;
            break;
          }
          case kFrameDrainCommit: {
            std::uint64_t through = 0;
            std::uint64_t generation = 0;
            if (!cursor.TakeU64(&through) || !cursor.TakeU64(&generation) ||
                !cursor.exhausted()) {
              return CorruptAt(name, offset, "malformed drain-commit frame");
            }
            if (!pending.empty()) {
              return CorruptAt(name, offset,
                               "drain-commit amid uncommitted records");
            }
            result.drained_through = through;
            result.drained_generation = generation;
            committed_end = frame.end;
            break;
          }
          default:
            return CorruptAt(name, offset,
                             "unknown frame type " +
                                 std::to_string(frame.type));
        }
        offset = frame.end;
      }

      // A torn or uncommitted tail is legal in ANY segment, not just the
      // youngest: a write failure poisons a segment mid-batch and the
      // writer rotates onward, leaving the half-written tail sealed in
      // place. Nothing committed can hide in such a tail — if it did,
      // the consecutive-sequence check above fires at the next commit.
      result.discarded_records += pending.size();
      if (is_last && (torn || !pending.empty())) {
        // Cut back to the last committed boundary so the next replay sees
        // a clean journal; the discarded records were never acknowledged.
        result.tail_truncated = true;
        result.truncated_file = name;
        result.truncate_offset = committed_end;
      }
      result.segments.push_back(info);
    }
  } catch (const InterruptedError& interrupted) {
    return interrupted.status();
  }
  return result;
}

}  // namespace perfxplain
