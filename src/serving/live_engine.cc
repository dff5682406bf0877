#include "serving/live_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/logging.h"

namespace perfxplain {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

LiveEngine::LiveEngine(const ExecutionLog& log, EngineOptions options,
                       RotationPolicy policy)
    : options_(std::move(options)), policy_(policy), delta_(log.schema()) {
  // Successive generations must share one ResultCache so rotation can
  // invalidate per generation; materialize the byte-budget form into a
  // shared cache up front.
  if (options_.result_cache == nullptr && options_.result_cache_bytes > 0) {
    options_.result_cache =
        std::make_shared<ResultCache>(options_.result_cache_bytes);
  }
  MutexLock lock(state_mutex_);
  current_ = std::make_shared<const Engine>(
      std::make_shared<const LogSnapshot>(log), options_);
}

LiveEngine::~LiveEngine() { StopPromoter(); }

std::shared_ptr<const Engine> LiveEngine::engine() const {
  MutexLock lock(state_mutex_);
  return current_;
}

std::uint64_t LiveEngine::generation() const {
  MutexLock lock(state_mutex_);
  return current_->snapshot()->id();
}

Status LiveEngine::CheckNotServed(
    const std::vector<ExecutionRecord>& records) const {
  for (const ExecutionRecord& record : records) {
    if (current_->snapshot()->columns().Find(record.id).ok()) {
      return Status::InvalidArgument("record id '" + record.id +
                                     "' already exists in the served log");
    }
  }
  return Status::OK();
}

Status LiveEngine::Append(ExecutionRecord record) {
  return AppendBatch(BatchOfOne(std::move(record)));
}

Status LiveEngine::AppendBatch(std::vector<ExecutionRecord> records) {
  if (wal_ != nullptr) {
    PX_RETURN_IF_ERROR(DurableStage(std::move(records)));
    MaybeAutoRotate();
    return Status::OK();
  }
  {
    // The duplicate check against the served log and the delta append
    // happen under the same lock the rotation's swap+commit holds, so an
    // append observes either (old base, draining ids still reserved in
    // the delta) or (new base containing them) — never a gap a duplicate
    // could slip through.
    MutexLock lock(state_mutex_);
    PX_RETURN_IF_ERROR(CheckNotServed(records));
    PX_RETURN_IF_ERROR(delta_.AppendBatch(std::move(records)));
  }
  MaybeAutoRotate();
  return Status::OK();
}

Status LiveEngine::DurableStage(std::vector<ExecutionRecord> records) {
  if (records.empty()) return Status::OK();
  MutexLock append_lock(append_mutex_);
  {
    // Pre-validate so a batch that would be rejected never reaches the
    // journal: replay re-runs exactly these deterministic checks, so the
    // WAL stays free of batches the live engine did not accept.
    MutexLock lock(state_mutex_);
    PX_RETURN_IF_ERROR(CheckNotServed(records));
    PX_RETURN_IF_ERROR(delta_.ValidateBatch(records));
  }
  // Journal + fsync outside state_mutex_: a disk barrier must never
  // stall Explain's engine-pointer grab or a rotation's swap. A failure
  // here means the batch is NOT acknowledged and NOT staged — at worst
  // uncommitted frames linger in the segment, which replay discards.
  Result<std::uint64_t> sequence = wal_->AppendBatch(records);
  if (!sequence.ok()) return sequence.status();
  {
    // Between pre-validation and staging the only mutators were other
    // durable appends (serialized by append_mutex_) and rotations, which
    // only move pending records into the served log — so the checks
    // above still hold and this stage cannot introduce a duplicate.
    MutexLock lock(state_mutex_);
    PX_RETURN_IF_ERROR(delta_.AppendBatch(std::move(records)));
    last_staged_seq_ = *sequence;
  }
  return Status::OK();
}

bool LiveEngine::ShouldRotate() const {
  const std::size_t pending = delta_.pending_rows();
  if (pending == 0) return false;
  if (policy_.max_delta_rows > 0 && pending >= policy_.max_delta_rows) {
    return true;
  }
  return policy_.max_delta_age_ms > 0 &&
         delta_.oldest_pending_age_ms() >= policy_.max_delta_age_ms;
}

void LiveEngine::MaybeAutoRotate() {
  if (!ShouldRotate()) return;
  {
    std::lock_guard<std::mutex> lock(promoter_mutex_);
    if (promoter_running_) {
      // A promoter thread owns rotation; wake it instead of promoting on
      // the appender's thread.
      promoter_cv_.notify_one();
      return;
    }
  }
  if (auto rotated = Rotate(); !rotated.ok()) {
    // The append itself succeeded; a failed threshold rotation leaves the
    // deltas staged and the next trigger retries. Surfaced by counter.
    auto_rotate_failures_.fetch_add(1, std::memory_order_acq_rel);
  }
}

std::shared_ptr<const Engine> LiveEngine::SwapEngine(
    std::shared_ptr<const Engine> next) {
  std::shared_ptr<const Engine> evicted;
  MutexLock lock(state_mutex_);
  retired_.push_back(current_);
  current_ = std::move(next);
  delta_.CommitDrain();
  if (retired_.size() > policy_.drain_generations) {
    evicted = std::move(retired_.front());
    retired_.pop_front();
  }
  return evicted;
}

Result<RotationStats> LiveEngine::Rotate(const RotateRequest& request) {
  MutexLock rotation_lock(rotation_mutex_);
  const Clock::time_point start = Clock::now();
  std::shared_ptr<const Engine> old_engine = engine();
  RotationStats stats;
  stats.old_snapshot_id = old_engine->snapshot()->id();
  stats.new_snapshot_id = stats.old_snapshot_id;
  stats.total_rows = old_engine->snapshot()->columns().rows();

  std::vector<ExecutionRecord> drained;
  std::uint64_t drain_through = 0;
  {
    // Capture the drained prefix and the WAL sequence of its last batch
    // atomically: durable appends stage and bump last_staged_seq_ under
    // this same lock, so `drain_through` names exactly the journaled
    // prefix this promotion will fold in.
    MutexLock lock(state_mutex_);
    drained = delta_.BeginDrain();
    drain_through = last_staged_seq_;
  }
  if (drained.empty()) {
    delta_.AbortDrain();
    stats.promote_ms = MsSince(start);
    return stats;
  }

  // Promotion is admission-charged like any long request: refuse to grow
  // the snapshot past the candidate-pair ceiling (installing it would make
  // every subsequent request inadmissible anyway). The deltas stay staged
  // so the caller can raise the limit and retry.
  const std::size_t total = stats.total_rows + drained.size();
  if (options_.limits.max_candidate_pairs > 0) {
    const std::size_t pairs = total > 1 ? total * (total - 1) : 0;
    if (pairs > options_.limits.max_candidate_pairs) {
      delta_.AbortDrain();
      return Status::ResourceExhausted(
          "rotation rejected: promoting " + std::to_string(drained.size()) +
          " rows would enumerate " + std::to_string(pairs) +
          " candidate ordered pairs, exceeding max_candidate_pairs = " +
          std::to_string(options_.limits.max_candidate_pairs));
    }
  }

  ExecContext context;
  context.cancel = request.cancel;
  if (request.deadline_ms > 0) {
    context.deadline =
        Clock::now() + std::chrono::milliseconds(request.deadline_ms);
  }
  ScopedExecContext scoped(context.empty() ? nullptr : &context);
  try {
    // Extend the served columns by the drained records, in append order.
    // Append validated every record's arity, kinds and id.
    ThrowIfInterrupted();
    const std::size_t promoted = drained.size();
    auto next_snapshot = std::make_shared<const LogSnapshot>(
        *old_engine->snapshot(), std::move(drained));

    // Re-warm the pair-code plane incrementally when the old generation's
    // was filled and the grown plane still fits the engine's budget:
    // old-row tiles are copied, only pairs touching a new row are packed
    // (checkpointed per row inside TilePool::Fill). A cold or over-budget
    // plane just warms lazily on first use, as on any fresh snapshot.
    const double sim = options_.sim_but_diff.pair.sim_fraction;
    const TilePool* base_plane =
        old_engine->snapshot()->pair_codes().Peek(sim);
    if (base_plane != nullptr) {
      const std::size_t budget = options_.sim_but_diff.pair_code_budget_bytes;
      stats.pair_plane_seeded =
          next_snapshot->pair_codes().Acquire(
              sim, budget, policy_.promote_threads, base_plane) != nullptr;
    }

    auto next_engine =
        std::make_shared<const Engine>(next_snapshot, options_);
    std::shared_ptr<const Engine> evicted = SwapEngine(std::move(next_engine));
    rotations_.fetch_add(1, std::memory_order_acq_rel);

    stats.new_snapshot_id = next_snapshot->id();
    stats.promoted_rows = promoted;
    stats.total_rows = next_snapshot->columns().rows();

    // Durability epilogue — everything here is fail-soft: the swap
    // already happened, and on any failure the WAL keeps every segment,
    // so a recovery still reconstructs exactly this state.
    if (wal_ != nullptr) {
      Status marked =
          wal_->AppendDrainCommit(drain_through, next_snapshot->id());
      if (!marked.ok() && stats.checkpoint_error.empty()) {
        stats.checkpoint_error = marked.ToString();
      }
    }
    if (durability_.checkpoint_on_rotate &&
        !durability_.checkpoint_dir.empty()) {
      Status written = SnapshotCheckpoint::Write(
          durability_.checkpoint_dir, next_snapshot->columns(),
          next_snapshot->id(), drain_through, fs_);
      if (written.ok()) {
        stats.checkpointed = true;
        if (wal_ != nullptr) {
          // The checkpoint durably covers every batch through
          // drain_through; segments wholly below it are dead weight.
          (void)wal_->TruncateThrough(drain_through);
        }
      } else {
        stats.checkpoint_error = written.ToString();
      }
    }

    if (options_.result_cache != nullptr) {
      // Exactly the retired generation's entries; plus a straggler sweep
      // of any generation that just left the drain window (its drain
      // queries may have re-inserted results after its own retirement).
      stats.invalidated_cache_entries =
          options_.result_cache->InvalidateSnapshot(stats.old_snapshot_id);
      if (evicted != nullptr) {
        options_.result_cache->InvalidateSnapshot(
            evicted->snapshot()->id());
      }
    }
    stats.promote_ms = MsSince(start);
    return stats;
  } catch (const InterruptedError& interrupted) {
    // A checkpoint fired mid-promotion: the partially built snapshot (and
    // its partially filled plane) is dropped whole, the deltas stay
    // staged, and the serving generation was never touched.
    delta_.AbortDrain();
    return interrupted.status();
  }
}

Result<std::unique_ptr<LiveEngine>> LiveEngine::Recover(
    ExecutionLog seed_log, const DurabilityOptions& durability,
    EngineOptions options, RotationPolicy policy, RecoveryStats* stats,
    FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  RecoveryStats recovered;

  // 1. Base state: the newest durable checkpoint, or the seed log on a
  // fresh deployment. A damaged newest checkpoint is a hard, contextful
  // failure — silently falling back to older state would serve answers
  // missing acknowledged records.
  ExecutionLog base = std::move(seed_log);
  std::uint64_t wal_through = 0;
  if (!durability.checkpoint_dir.empty()) {
    Result<CheckpointContents> loaded =
        SnapshotCheckpoint::LoadLatest(durability.checkpoint_dir, fs);
    if (loaded.ok()) {
      recovered.checkpoint_loaded = true;
      recovered.checkpoint_generation = loaded->generation;
      recovered.checkpoint_rows = loaded->log.size();
      wal_through = loaded->wal_through;
      base = std::move(loaded->log);
      // Never re-issue a generation an on-disk checkpoint already names.
      LogSnapshot::EnsureNextIdAfter(loaded->generation);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  // 2. The WAL tail past the checkpoint's cutoff. Torn tails are
  // classified (and truncated below), corruption inside committed data
  // fails here with file + offset context.
  WalReplayResult replay;
  if (!durability.wal_dir.empty()) {
    Result<WalReplayResult> replayed =
        WalReader::Replay(durability.wal_dir, wal_through, fs);
    if (!replayed.ok()) return replayed.status();
    replay = std::move(*replayed);
    // A drain-commit past both the checkpoint's cutoff and the journal's
    // last batch means the checkpoint that folded those batches (and let
    // their segments be truncated) is gone: serving on would silently
    // drop acknowledged appends.
    if (replay.drained_through > std::max(wal_through, replay.last_sequence)) {
      return Status::IoError("WAL '" + durability.wal_dir +
                             "' was drained through batch " +
                             std::to_string(replay.drained_through) +
                             " but no checkpoint covers it");
    }
    if (replay.tail_truncated) {
      PX_RETURN_IF_ERROR(
          fs->TruncateFile(durability.wal_dir + "/" + replay.truncated_file,
                           replay.truncate_offset));
      recovered.wal_tail_truncated = true;
      recovered.truncated_file = replay.truncated_file;
      recovered.truncate_offset = replay.truncate_offset;
    }
    recovered.discarded_records = replay.discarded_records;
    LogSnapshot::EnsureNextIdAfter(replay.drained_generation);
  }

  // The engine keeps only the columns, so the row copy ends with this
  // block, before the tail is re-applied and rotated in.
  std::unique_ptr<LiveEngine> engine;
  {
    const ExecutionLog served = std::move(base);
    engine = std::make_unique<LiveEngine>(served, std::move(options), policy);
  }
  engine->durability_ = durability;
  engine->fs_ = fs;

  if (!durability.wal_dir.empty()) {
    // New segment, sequences continuing after everything the durable
    // state has ever named — not just the journal's highest commit. A
    // checkpoint's truncation can delete every commit-bearing segment
    // (leaving, say, only a drain-commit marker), so the journal alone
    // may remember nothing while the checkpoint covers through N;
    // restarting numbering below N+1 would make the next recovery
    // silently filter freshly acknowledged batches as already covered
    // by the checkpoint. The replayed segments become sealed history
    // the next checkpoint can truncate.
    const std::uint64_t durable_through = std::max(
        {replay.last_sequence, wal_through, replay.drained_through});
    Result<std::unique_ptr<WalWriter>> wal =
        WalWriter::Open(durability.wal_dir, durability.wal,
                        durable_through + 1, replay.segments, fs);
    if (!wal.ok()) return wal.status();
    engine->wal_ = std::move(*wal);
    {
      MutexLock lock(engine->state_mutex_);
      engine->last_staged_seq_ = durable_through;
    }

    // 3. Re-apply the tail through the same validated path that admitted
    // it live — without re-journaling (the batches are already durable).
    for (WalBatch& batch : replay.batches) {
      try {
        ThrowIfInterrupted();
      } catch (const InterruptedError& interrupted) {
        return interrupted.status();
      }
      const std::size_t batch_records = batch.records.size();
      Status staged;
      {
        MutexLock lock(engine->state_mutex_);
        staged = engine->CheckNotServed(batch.records);
        if (staged.ok()) {
          staged = engine->delta_.AppendBatch(std::move(batch.records));
        }
      }
      if (staged.ok()) {
        recovered.replayed_batches += 1;
        recovered.replayed_records += batch_records;
      } else {
        recovered.rejected_batches += 1;
      }
    }

    // 4. Fold the replayed records into a served snapshot before
    // returning: explanations consult the snapshot, so serving would
    // otherwise resume blind to the replayed tail. This rotation also
    // re-checkpoints and truncates the replayed segments.
    if (recovered.replayed_batches > 0) {
      Result<RotationStats> rotated = engine->Rotate();
      if (!rotated.ok()) return rotated.status();
    }
  }

  if (stats != nullptr) *stats = recovered;
  return engine;
}

void LiveEngine::StartPromoter() {
  std::lock_guard<std::mutex> lock(promoter_mutex_);
  if (promoter_running_) return;
  promoter_stop_ = false;
  promoter_running_ = true;
  promoter_ = std::thread([this] { PromoterLoop(); });
}

void LiveEngine::StopPromoter() {
  {
    std::lock_guard<std::mutex> lock(promoter_mutex_);
    if (!promoter_running_) return;
    promoter_stop_ = true;
  }
  promoter_cv_.notify_all();
  promoter_.join();
  std::lock_guard<std::mutex> lock(promoter_mutex_);
  promoter_running_ = false;
}

void LiveEngine::PromoterLoop() {
#if defined(__linux__)
  if (policy_.promoter_nice > 0) {
    // Deprioritize this thread only: promotion is maintenance, and on a
    // contended host an overlapping Explain should win the core. Best
    // effort — a refusal just means fair-share scheduling.
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                policy_.promoter_nice);
  }
#endif
  std::unique_lock<std::mutex> lock(promoter_mutex_);
  while (!promoter_stop_) {
    promoter_cv_.wait_for(
        lock, std::chrono::milliseconds(policy_.promoter_poll_ms));
    if (promoter_stop_) break;
    lock.unlock();
    if (ShouldRotate()) {
      if (auto rotated = Rotate(); !rotated.ok()) {
        auto_rotate_failures_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    lock.lock();
  }
}

Result<PreparedQuery> LiveEngine::Prepare(const Query& query) const {
  return engine()->Prepare(query);
}

Result<PreparedQuery> LiveEngine::PrepareText(const std::string& pxql) const {
  return engine()->PrepareText(pxql);
}

Result<ExplainResponse> LiveEngine::Explain(
    const PreparedQuery& prepared, const ExplainRequest& request) const {
  std::shared_ptr<const Engine> target;
  {
    MutexLock lock(state_mutex_);
    if (prepared.snapshot() == current_->snapshot()) {
      target = current_;
    } else {
      for (const std::shared_ptr<const Engine>& drained : retired_) {
        if (prepared.snapshot() == drained->snapshot()) {
          target = drained;
          break;
        }
      }
    }
  }
  if (target == nullptr) {
    return Status::InvalidArgument(
        "PreparedQuery's snapshot generation has left the drain window; "
        "re-prepare against the current engine");
  }
  // Outside the lock: a long Explain must never block appends, rotations
  // or other queries.
  return target->Explain(prepared, request);
}

}  // namespace perfxplain
