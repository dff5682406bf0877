#ifndef PERFXPLAIN_SERVING_LIVE_ENGINE_H_
#define PERFXPLAIN_SERVING_LIVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "serving/delta_log.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"

namespace perfxplain {

/// Crash-safety knobs for a LiveEngine obtained through Recover. Both
/// directories empty = a purely in-memory engine (the plain constructor's
/// behaviour). With a wal_dir, every accepted append batch is journaled
/// and fsynced per WalOptions BEFORE the append returns, so an
/// acknowledged record survives a crash; with a checkpoint_dir, each
/// rotation durably checkpoints the promoted snapshot and truncates the
/// WAL segments the checkpoint covers, bounding replay time.
struct DurabilityOptions {
  std::string wal_dir;         ///< empty = no write-ahead journal
  std::string checkpoint_dir;  ///< empty = no snapshot checkpoints
  WalOptions wal;
  /// Write a checkpoint on every rotation (with a checkpoint_dir).
  bool checkpoint_on_rotate = true;
};

/// What LiveEngine::Recover found and did.
struct RecoveryStats {
  bool checkpoint_loaded = false;
  std::uint64_t checkpoint_generation = 0;
  std::size_t checkpoint_rows = 0;
  /// WAL tail batches re-applied through the validated append path.
  std::size_t replayed_batches = 0;
  std::size_t replayed_records = 0;
  /// Journaled batches the validation path rejected on re-apply (the
  /// same deterministic checks that admitted them live; nonzero only
  /// when the journal and checkpoint disagree).
  std::size_t rejected_batches = 0;
  /// A torn tail was found and physically truncated.
  bool wal_tail_truncated = false;
  std::string truncated_file;
  std::uint64_t truncate_offset = 0;
  /// Journaled records whose commit marker never made it (in-flight at
  /// the crash, never acknowledged).
  std::size_t discarded_records = 0;
};

/// When the promoter folds the delta log into a fresh snapshot. Both
/// thresholds 0 disables auto-rotation (explicit Rotate calls only).
struct RotationPolicy {
  /// Rotate once this many records are pending (0 = no row trigger).
  std::size_t max_delta_rows = 0;
  /// Rotate once the oldest pending record is this old (0 = no age
  /// trigger).
  std::int64_t max_delta_age_ms = 0;
  /// Poll cadence of the background promoter thread (StartPromoter).
  std::int64_t promoter_poll_ms = 20;
  /// Retired engines kept alive after a rotation so PreparedQueries
  /// against their snapshots keep draining; older generations are
  /// released (and their straggler cache entries invalidated).
  std::size_t drain_generations = 1;
  /// Worker threads for the seeded pair-plane fill during promotion
  /// (0 = the process default, itself defaulting to the hardware
  /// concurrency; see ResolveThreads). Observation-free, like every
  /// thread knob: promoted snapshots are bitwise identical at any value.
  int promote_threads = 0;
  /// Nice value the background promoter thread lowers itself to (Linux;
  /// 0 = leave the scheduler alone). Promotion is maintenance work: at
  /// nice 19 an overlapping Explain keeps ~95% of a contended core, so
  /// rotation stretches instead of the serving tail. Scheduling only —
  /// promoted snapshots are bitwise identical at any value.
  int promoter_nice = 19;
};

/// Deadline/cancellation of one promotion, mirroring ExplainRequest's
/// fields: the promotion loop is checkpointed like any long loop, and an
/// interrupted promotion rolls back whole (deltas intact, serving
/// generation untouched).
struct RotateRequest {
  std::int64_t deadline_ms = 0;
  std::shared_ptr<const CancelToken> cancel;
};

/// What one promotion did.
struct RotationStats {
  std::uint64_t old_snapshot_id = 0;
  std::uint64_t new_snapshot_id = 0;  ///< == old when nothing was pending
  std::size_t promoted_rows = 0;      ///< delta records folded in
  std::size_t total_rows = 0;         ///< rows of the new snapshot
  /// Whether the new snapshot's pair-code plane was filled incrementally
  /// from the old generation's filled plane (PairCodeStore::Acquire with
  /// it as the seed: old-row tiles copied, only new-row pairs packed).
  /// False when the old plane was cold or the plane exceeds the engine's
  /// budget — the new store then warms lazily like any cold snapshot.
  bool pair_plane_seeded = false;
  /// Entries of the retired generation dropped from the shared
  /// ResultCache (0 when caching is off).
  std::size_t invalidated_cache_entries = 0;
  /// A durable checkpoint of the new snapshot was written (engines with a
  /// checkpoint_dir only); on success the WAL was truncated through the
  /// drained batches. Checkpoint failures are fail-soft — the rotation
  /// itself stands, the WAL keeps everything, and the error is here.
  bool checkpointed = false;
  std::string checkpoint_error;
  double promote_ms = 0.0;
};

/// The live-serving facade over Engine: the HTAP-style split between an
/// append-only write path (DeltaLog) and an immutable analytical snapshot
/// (LogSnapshot + Engine), connected by a promoter that periodically
/// folds accumulated deltas into a fresh snapshot and atomically swaps
/// it in. The read path is wait-free with respect to ingest: Explain
/// runs on whatever engine it picked up — appends touch only the delta
/// buffer, and a rotation replaces the engine pointer without blocking
/// or tearing in-flight queries.
///
/// Promotion is incremental end to end: the new ColumnarLog copies the
/// old columns and ingests only delta rows (append-only interning keeps
/// every dictionary code identical), and a warm pair-code plane is
/// re-warmed by copying old-row tiles and packing only pairs that touch
/// a new row. Promoted snapshots are bitwise identical to cold rebuilds
/// of the same log at every thread count and tile budget (the
/// PromotionEquivalence suites pin this).
///
/// Generation contract: every snapshot has a process-unique id
/// (LogSnapshot::id), surfaced per response as
/// ExplainResponse::snapshot_id. A rotation retires the current
/// generation into a bounded drain window (RotationPolicy::
/// drain_generations): PreparedQueries against a retired snapshot keep
/// answering on it — bitwise as before — until the window slides past
/// it; beyond that Explain returns InvalidArgument and the caller
/// re-prepares. Engines of all generations share one ResultCache (keys
/// embed the snapshot id); rotation invalidates exactly the retired
/// generation's entries.
///
/// Thread safety: all public methods are safe from any number of
/// threads. Rotations serialize among themselves on rotation_mutex_;
/// the engine swap + delta commit is atomic under state_mutex_, which
/// Append also holds for its duplicate-id check — so an append always
/// observes either (old base, draining ids reserved) or (new base
/// containing them), never a gap.
class LiveEngine {
 public:
  explicit LiveEngine(const ExecutionLog& log, EngineOptions options = {},
                      RotationPolicy policy = {});
  ~LiveEngine();

  /// The one way to obtain a durable LiveEngine, and the crash-recovery
  /// entry point — on a fresh directory pair it simply starts journaling.
  /// Loads the newest checkpoint (falling back to `seed_log` when none
  /// exists), replays the WAL tail past the checkpoint's cutoff through
  /// the same validated append path that admitted those batches live,
  /// physically truncates a torn tail at the last committed batch
  /// boundary, and folds the replayed records into a fresh snapshot
  /// before returning — so explanations from the recovered engine are
  /// bitwise identical to an uncrashed engine over the same acknowledged
  /// appends. Torn tails are never fatal; corruption beyond the torn tail
  /// (a checksum mismatch inside committed data, a damaged checkpoint)
  /// fails with a contextful Status rather than serving silently wrong
  /// answers. Interruptible via the calling thread's ExecContext.
  static Result<std::unique_ptr<LiveEngine>> Recover(
      ExecutionLog seed_log, const DurabilityOptions& durability,
      EngineOptions options = {}, RotationPolicy policy = {},
      RecoveryStats* stats = nullptr, FileSystem* fs = nullptr);

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// The engine of the current generation. Callers may hold it across a
  /// rotation: it keeps serving its snapshot (that is the drain path).
  std::shared_ptr<const Engine> engine() const PX_EXCLUDES(state_mutex_);

  /// Snapshot id of the current generation.
  std::uint64_t generation() const PX_EXCLUDES(state_mutex_);

  /// Records staged and not yet promoted.
  std::size_t pending_rows() const { return delta_.pending_rows(); }

  /// Rotations that completed a swap so far.
  std::uint64_t rotations() const {
    return rotations_.load(std::memory_order_acquire);
  }
  /// Auto-rotations (threshold-triggered, promoter- or append-driven)
  /// that failed; their deltas stay staged and the next trigger retries.
  std::uint64_t auto_rotate_failures() const {
    return auto_rotate_failures_.load(std::memory_order_acquire);
  }

  /// Stages one record behind the engine boundary. Validates arity and
  /// id uniqueness against both the served log and the pending delta.
  /// Never blocks Explain; may trigger an auto-rotation (inline when no
  /// promoter thread runs, else by waking it). On a durable engine the
  /// record is journaled and fsynced (per WalOptions) before OK is
  /// returned: an acknowledged append survives a crash, and a failed
  /// journal write means NOT acknowledged — the record is not staged.
  Status Append(ExecutionRecord record)
      PX_EXCLUDES(state_mutex_, rotation_mutex_);

  /// All-or-nothing batch append (the streaming ingest entry points feed
  /// this). One threshold check at the end, like one Append; one WAL
  /// batch (records + commit marker) on a durable engine.
  Status AppendBatch(std::vector<ExecutionRecord> records)
      PX_EXCLUDES(state_mutex_, rotation_mutex_);

  /// Folds every pending delta into a fresh snapshot and swaps it in.
  /// No-op (stats with old == new id) when nothing is pending. The
  /// promotion loop is checkpointed: a deadline or cancellation unwinds
  /// with the deltas intact and the serving generation untouched.
  /// Admission-charged like any long request: when EngineLimits::
  /// max_candidate_pairs would be exceeded by the grown snapshot, the
  /// rotation is rejected with kResourceExhausted instead of installing
  /// an engine that rejects everything.
  Result<RotationStats> Rotate(const RotateRequest& request = {})
      PX_EXCLUDES(state_mutex_, rotation_mutex_);

  /// Starts/stops the background promoter: a thread that polls the
  /// rotation policy every promoter_poll_ms and rotates when a threshold
  /// trips (appends crossing a threshold wake it immediately).
  /// Idempotent; the destructor stops it.
  void StartPromoter();
  void StopPromoter();

  /// Prepare against the current generation. The result pins its
  /// snapshot and stays answerable through the drain window.
  Result<PreparedQuery> Prepare(const Query& query) const
      PX_EXCLUDES(state_mutex_);
  Result<PreparedQuery> PrepareText(const std::string& pxql) const
      PX_EXCLUDES(state_mutex_);

  /// Routes the request to the engine of the prepared query's generation
  /// — current or draining — and answers bitwise as a standalone Engine
  /// over that snapshot would. InvalidArgument once the generation has
  /// left the drain window.
  Result<ExplainResponse> Explain(const PreparedQuery& prepared,
                                  const ExplainRequest& request = {}) const
      PX_EXCLUDES(state_mutex_);

 private:
  bool ShouldRotate() const;
  void MaybeAutoRotate() PX_EXCLUDES(state_mutex_, rotation_mutex_);
  void PromoterLoop();

  /// InvalidArgument naming the first record whose id the served log
  /// already holds. Every append path (live, durable, replay) runs it
  /// under state_mutex_, which the rotation's swap+commit also holds.
  Status CheckNotServed(const std::vector<ExecutionRecord>& records) const
      PX_REQUIRES(state_mutex_);

  /// The durable append path: pre-validate under state_mutex_, journal +
  /// fsync OUTSIDE it (a disk barrier must never stall Explain's
  /// engine-pointer grab), then stage. append_mutex_ serializes these
  /// triples so the WAL's batch order equals the staging order replay
  /// reproduces.
  Status DurableStage(std::vector<ExecutionRecord> records)
      PX_EXCLUDES(append_mutex_, state_mutex_, rotation_mutex_);

  /// The one mutation of serving state: installs `next` and commits the
  /// drain in one critical section, then slides the drain window.
  /// Returns the engine that fell out of the window (released outside
  /// the lock), if any.
  std::shared_ptr<const Engine> SwapEngine(
      std::shared_ptr<const Engine> next) PX_EXCLUDES(state_mutex_);

  EngineOptions options_;  ///< result_cache always set when caching is on
  const RotationPolicy policy_;
  DeltaLog delta_;

  // Durability state; only Recover populates it (wal_ stays null on a
  // plain-constructed, in-memory engine).
  DurabilityOptions durability_;
  FileSystem* fs_ = nullptr;
  std::unique_ptr<WalWriter> wal_;

  /// Serializes durable appends end to end (validate → journal → stage).
  /// Never held by readers or rotations, and never held while holding
  /// state_mutex_ across an fsync.
  Mutex append_mutex_;
  /// WAL sequence of the last staged batch; captured together with
  /// BeginDrain under state_mutex_, so a drain-commit names exactly the
  /// journaled prefix the new snapshot folded in.
  std::uint64_t last_staged_seq_ PX_GUARDED_BY(state_mutex_) = 0;

  mutable Mutex state_mutex_;
  std::shared_ptr<const Engine> current_ PX_GUARDED_BY(state_mutex_);
  /// Retired generations still answering drained PreparedQueries,
  /// newest last; bounded by policy_.drain_generations.
  std::deque<std::shared_ptr<const Engine>> retired_
      PX_GUARDED_BY(state_mutex_);

  Mutex rotation_mutex_;  ///< serializes promotions end to end

  std::atomic<std::uint64_t> rotations_{0};
  std::atomic<std::uint64_t> auto_rotate_failures_{0};

  // Promoter thread state. A plain std::mutex + condition_variable pair:
  // the cv interop (wait_for) is outside the annotated Mutex wrapper's
  // model, and the three fields below are only touched under
  // promoter_mutex_ by construction (Start/Stop/loop/wake).
  std::mutex promoter_mutex_;
  std::condition_variable promoter_cv_;
  bool promoter_stop_ = false;
  bool promoter_running_ = false;
  std::thread promoter_;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_SERVING_LIVE_ENGINE_H_
