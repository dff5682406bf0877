#ifndef PERFXPLAIN_STORAGE_CHECKPOINT_H_
#define PERFXPLAIN_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "log/columnar.h"
#include "log/execution_log.h"
#include "storage/file_io.h"

namespace perfxplain {

/// Durable snapshot checkpoints for the live-serving engine. A checkpoint
/// captures the promoted snapshot's rows (schema included), the snapshot
/// generation that produced it, and the highest WAL batch sequence folded
/// into it; recovery loads the newest checkpoint and replays only the WAL
/// tail past `wal_through`.
///
/// On-disk layout: one file `checkpoint-NNNNNN` per generation, in the
/// WAL's frame and record codec (storage/frame.h): the magic "PXCKPT02",
/// a header frame (generation, wal_through, the schema's names and
/// kinds), one record frame per row in log order, and an end frame with
/// the row count. Values are stored exactly (a double as its bit
/// pattern), so the loaded log equals the written one cell for cell.
///
/// Atomicity: the file is written as `.tmp-checkpoint-NNNNNN`, fsynced,
/// renamed into place and the directory fsynced, so a crash leaves either
/// the previous checkpoint or the new one (stale tmp files are swept on
/// the next successful Write). The frame CRCs cover the exact bytes
/// handed to the filesystem: what recovery parses is what was serialized.
struct CheckpointContents {
  std::uint64_t generation = 0;
  /// Highest WAL batch sequence already folded into `log`; replay starts
  /// after it.
  std::uint64_t wal_through = 0;
  ExecutionLog log;
};

class SnapshotCheckpoint {
 public:
  /// Durably writes the rows of `columns` as generation `generation`, then
  /// deletes older checkpoints and stale tmp files (best-effort). On
  /// return the new checkpoint is the one LoadLatest will pick, or nothing
  /// changed.
  static Status Write(const std::string& dir, const ColumnarLog& columns,
                      std::uint64_t generation, std::uint64_t wal_through,
                      FileSystem* fs = nullptr);

  /// Loads the newest checkpoint. kNotFound when the directory holds none
  /// (fresh deployment); any integrity failure of the newest checkpoint —
  /// a torn frame, a CRC mismatch, a missing end frame, a row-count or
  /// generation mismatch — is an IoError naming the file and offset, never
  /// a silent fallback to older state. Interruptible via the calling
  /// thread's ExecContext (kCancelled / kDeadlineExceeded surface as the
  /// returned Status).
  static Result<CheckpointContents> LoadLatest(const std::string& dir,
                                               FileSystem* fs = nullptr);
};

/// "checkpoint-NNNNNN" for `generation` (zero-padded, wider if needed).
std::string CheckpointFileName(std::uint64_t generation);

}  // namespace perfxplain

#endif  // PERFXPLAIN_STORAGE_CHECKPOINT_H_
