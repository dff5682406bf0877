#ifndef PERFXPLAIN_STORAGE_WAL_H_
#define PERFXPLAIN_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "log/execution_log.h"
#include "storage/file_io.h"

namespace perfxplain {

/// Write-ahead delta journal for live ingest. Every accepted append batch
/// is journaled here (records + a batch-atomic commit marker) and fsynced
/// per the configured discipline BEFORE the serving layer acknowledges
/// it, so a crash can lose at most unacknowledged work. Recovery replays
/// committed batches in order through the same validated append path that
/// admitted them live, which is what makes the recovered log — and every
/// explanation mined from it — bitwise identical to the uncrashed run.
///
/// On-disk layout: a directory of segment files `wal-NNNNNN.log`, each
/// the 8-byte magic "PXWAL001" followed by frames of the codec in
/// storage/frame.h (which checkpoint files share). kFrameRecord carries
/// one ExecutionRecord; kFrameCommit seals the records since the last
/// marker as batch `sequence` with an expected record count;
/// kFrameDrainCommit records that a rotation folded everything through
/// `through_sequence` into snapshot `generation`. Record frames not
/// followed by their commit marker were never acknowledged and are
/// discarded on replay.
///
/// Torn-vs-corrupt classification on replay: a frame extending past EOF
/// is a torn write. Torn (or commit-less) tails are legal in any segment
/// — a failed write poisons a segment mid-batch and the writer rotates
/// onward, sealing the half-written tail in place; only the youngest
/// segment's tail is additionally truncated back to the last committed
/// boundary (never fatal). What makes tolerating those tails safe is the
/// consecutive-sequence invariant: committed batch sequences are
/// consecutive, so a tail that destroyed an acknowledged batch is
/// detected at the next commit marker (or against the checkpoint cutoff)
/// instead of silently losing data. A fully-contained frame whose CRC
/// mismatches is corruption and fails replay with a contextful Status
/// naming the file and offset; it is never silently skipped.

/// When the writer issues fsync barriers.
enum class FsyncMode {
  /// fsync after every committed batch (default): an acknowledged append
  /// survives an immediate power cut.
  kEveryBatch,
  /// fsync every `fsync_every_n` batches: bounded loss window, higher
  /// throughput.
  kEveryN,
  /// Never fsync (leave durability to the OS page cache). Survives a
  /// process crash but not a power cut.
  kNone,
};

struct WalOptions {
  FsyncMode fsync = FsyncMode::kEveryBatch;
  /// Barrier period for FsyncMode::kEveryN, in batches.
  int fsync_every_n = 64;
  /// Segment rotation threshold; a batch never spans segments.
  std::uint64_t segment_bytes = 4u << 20;
  /// Backoff policy for transient (kUnavailable) write/fsync failures.
  RetryOptions retry;
};

/// One committed batch recovered from the journal.
struct WalBatch {
  std::uint64_t sequence = 0;
  std::vector<ExecutionRecord> records;
};

/// Per-segment bookkeeping: the highest committed batch sequence the
/// segment contains (0 when it holds none), used to decide when a sealed
/// segment is wholly covered by a checkpoint and may be deleted.
struct WalSegmentInfo {
  std::string file_name;
  std::uint64_t last_sequence = 0;
};

struct WalReplayResult {
  /// Committed batches with sequence > the replay cutoff, ascending.
  std::vector<WalBatch> batches;
  /// Highest committed batch sequence seen anywhere in the journal.
  std::uint64_t last_sequence = 0;
  /// Latest drain-commit marker, if any.
  std::uint64_t drained_through = 0;
  std::uint64_t drained_generation = 0;
  /// True when the youngest segment ended in a torn write (or in record
  /// frames whose commit marker never made it). The tail should be
  /// truncated to `truncate_offset` of `truncated_file` so later replays
  /// see a clean journal; LiveEngine::Recover does exactly that.
  bool tail_truncated = false;
  std::string truncated_file;
  std::uint64_t truncate_offset = 0;
  /// Record frames discarded because their commit marker was missing —
  /// work that was in flight but never acknowledged.
  std::size_t discarded_records = 0;
  /// Every segment seen, in replay order (seed for WalWriter::Open so
  /// truncation can delete pre-crash segments too).
  std::vector<WalSegmentInfo> segments;
};

/// Appends batches to the journal. Thread-safe; one writer object per
/// journal directory. Always opens a fresh segment — recovered segments
/// are sealed history, never appended to.
class WalWriter {
 public:
  /// Creates `dir` if needed and opens a new segment numbered after any
  /// existing ones. `next_sequence` seeds batch numbering (recovery
  /// passes last replayed sequence + 1); `sealed` seeds the bookkeeping
  /// for pre-existing segments so TruncateThrough can delete them once a
  /// checkpoint covers them. `fs` defaults to the real filesystem.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, const WalOptions& options,
      std::uint64_t next_sequence = 1,
      std::vector<WalSegmentInfo> sealed = {}, FileSystem* fs = nullptr);

  /// Journals `records` as one batch-atomic unit (record frames + commit
  /// marker), applies the fsync discipline, and returns the batch
  /// sequence. On any failure the caller must NOT acknowledge the batch,
  /// and the current segment is poisoned: the next append rotates to a
  /// fresh segment so a half-written tail is never extended. A failure
  /// while writing the frames leaves the sequence unconsumed (the commit
  /// marker cannot have reached the file whole); a failure at the fsync
  /// barrier AFTER the frames were written burns the sequence — the
  /// commit marker is in the file, so reusing its sequence would produce
  /// a duplicate that replay must refuse — and the unacknowledged batch,
  /// like any torn write, may or may not survive a crash.
  Result<std::uint64_t> AppendBatch(const std::vector<ExecutionRecord>& records)
      PX_EXCLUDES(mutex_);

  /// Journals a drain-commit marker: every batch through
  /// `through_sequence` is folded into snapshot `generation`.
  Status AppendDrainCommit(std::uint64_t through_sequence,
                           std::uint64_t generation) PX_EXCLUDES(mutex_);

  /// Deletes sealed segments whose batches are all <= `sequence`
  /// (i.e. wholly covered by a durable checkpoint). The active segment is
  /// never deleted.
  Status TruncateThrough(std::uint64_t sequence) PX_EXCLUDES(mutex_);

  /// Sequence the next committed batch will get.
  std::uint64_t next_sequence() const PX_EXCLUDES(mutex_);

 private:
  WalWriter(std::string dir, WalOptions options, std::uint64_t next_sequence,
            std::vector<WalSegmentInfo> sealed, FileSystem* fs);

  /// Seals the current segment and opens the next one.
  Status RotateSegmentLocked() PX_REQUIRES(mutex_);
  /// Appends `data` to the active segment with transient-failure retry.
  Status WriteLocked(const std::string& data) PX_REQUIRES(mutex_);
  /// Applies the fsync discipline after a committed batch.
  Status MaybeSyncLocked() PX_REQUIRES(mutex_);

  const std::string dir_;
  const WalOptions options_;
  FileSystem* const fs_;

  mutable px::Mutex mutex_;
  std::unique_ptr<WritableFile> current_ PX_GUARDED_BY(mutex_);
  std::string current_name_ PX_GUARDED_BY(mutex_);
  std::uint64_t current_index_ PX_GUARDED_BY(mutex_) = 0;
  std::uint64_t current_bytes_ PX_GUARDED_BY(mutex_) = 0;
  std::uint64_t current_last_sequence_ PX_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_sequence_ PX_GUARDED_BY(mutex_) = 1;
  int batches_since_sync_ PX_GUARDED_BY(mutex_) = 0;
  /// Set when a write failed mid-frame; the next append starts a fresh
  /// segment instead of extending a half-written tail.
  bool poisoned_ PX_GUARDED_BY(mutex_) = false;
  std::vector<WalSegmentInfo> sealed_ PX_GUARDED_BY(mutex_);
};

class WalReader {
 public:
  /// Scans every segment of `dir` in order and returns the committed
  /// batches with sequence > `after_sequence` (the checkpoint's cutoff),
  /// applying the torn-vs-corrupt rules documented above. A missing or
  /// empty directory is an empty journal, not an error. Interruptible via
  /// the calling thread's ExecContext (kCancelled / kDeadlineExceeded
  /// surface as the returned Status).
  static Result<WalReplayResult> Replay(const std::string& dir,
                                        std::uint64_t after_sequence = 0,
                                        FileSystem* fs = nullptr);
};

/// "wal-NNNNNN.log" for segment `index` (1-based, zero-padded to six
/// digits, widening naturally past 999999 — replay orders segments by
/// numeric index, not file name).
std::string WalSegmentFileName(std::uint64_t index);

/// The 8-byte segment magic, exposed for tests that craft journals.
extern const char kWalMagic[9];

}  // namespace perfxplain

#endif  // PERFXPLAIN_STORAGE_WAL_H_
