// ingest-live: a durable LiveEngine that ingests Hadoop history and
// Ganglia text while a query client reads, then crashes and recovers.
#include <unistd.h>

#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common.h"
#include "common/logging.h"
#include "counting_fs.h"
#include "features/pair_code_store.h"
#include "ingest/ingest.h"
#include "log/catalog.h"
#include "serving/live_engine.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace stdfs = std::filesystem;

constexpr std::size_t kSeedRows = 1200;
/// Ingest until the log is about (1 + kGrowth) times its starting size.
constexpr double kGrowth = 2.0;
constexpr std::size_t kQuestions = 64;
constexpr std::size_t kRotateRows = 200;
/// The query client asks this many requests of each generation (half
/// PerfXplain, half SimButDiff, the first two being the first answers),
/// then waits for the next: every generation weighs the same in the
/// latency samples, whatever the speed of ingest (see CycleSync).
constexpr std::size_t kRequestsPerGeneration = 24;
/// One ingest cycle per this many --seconds (at least one).
constexpr double kSecondsPerCycle = 10.0;
constexpr std::size_t kRecoveries = 3;
/// Set-ups per run: this many minus one on their own, then one per cycle.
constexpr std::size_t kIngestSetups = 5;
/// PerfXplain questions every recovered engine must answer as a cold
/// engine over the same rows does.
constexpr std::size_t kProbes = 2;

struct Dirs {
  std::string root;
  std::string wal;
  std::string checkpoint;
};

/// Hand-off between the two clients of a cycle. Reads run beside the
/// ingest client's staging appends (parse, WAL write, fsync, stage) but
/// not beside a promotion: before an append that will rotate, the ingest
/// client waits until the query client has asked its requests of the
/// current generation. Promotions overlapping reads made read latency of
/// one seed differ by 15-25% between runs; this way every generation gets
/// the same requests and the rotations the same work.
struct CycleSync {
  std::mutex mutex;
  std::condition_variable changed;
  bool done = false;                    // guarded by mutex
  std::uint64_t quota_generation = 0;   // guarded by mutex

  /// Query client: every request of `generation` has been asked.
  void QuotaMet(std::uint64_t generation) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      quota_generation = generation;
    }
    changed.notify_all();
  }
  /// Ingest client: waits until the quota of `generation` is met; returns
  /// the milliseconds waited.
  double AwaitQuota(std::uint64_t generation) {
    const Clock::time_point start = Clock::now();
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return quota_generation == generation; });
    return MsSince(start);
  }
  /// Ingest client: a batch was acknowledged (it may have rotated), or
  /// ingest is over.
  void Notify(bool finished) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = done || finished;
    }
    changed.notify_all();
  }
};

class IngestLive {
 public:
  explicit IngestLive(const RunOptions& options);
  RunResult Execute();

 private:
  Dirs FreshDirs(const std::string& name) const;
  px::DurabilityOptions Durability(const Dirs& dirs) const;
  /// Seed rows handed over -> Recover on fresh directories, plus the
  /// one-time builds of generation 1 (pair-code plane, RReliefF ranking).
  std::unique_ptr<px::LiveEngine> SetUp(const Dirs& dirs,
                                        CountingFileSystem& fs);
  /// One ingest phase from fresh directories, ending in the crash: the
  /// engine is dropped with an unrotated WAL tail.
  void Cycle(std::size_t index);
  void IngestClient(px::LiveEngine& live, CountingFileSystem& fs,
                    std::size_t wal, std::size_t checkpoint, CycleSync& sync);
  void QueryClient(const px::LiveEngine& live, CycleSync& sync,
                   Latencies& latencies);
  /// Timed recoveries, each from a fresh copy of the crashed directories,
  /// checked against the acknowledged rows and a cold engine.
  void Recoveries();
  void Report(RunResult& result);

  const RunOptions& options_;
  RunState run_;
  double input_ms_ = 0.0;  // set while inputs_ is generated
  const IngestInputs inputs_;
  const px::Schema job_schema_ = px::MakeJobSchema();
  const px::Schema task_schema_ = px::MakeTaskSchema();
  const px::EngineOptions engine_options_;
  const std::size_t budget_;
  const double sim_;
  px::RotationPolicy policy_;
  std::string root_;

  Timings setup_s_;
  Latencies untraced_;
  Latencies traced_;
  std::vector<double> append_ack_ms_;
  std::vector<double> first_answer_ms_;
  std::vector<double> records_per_s_;
  std::vector<double> rotations_;
  std::vector<double> recover_s_;
  std::size_t seeded_rotations_ = 0;
  std::size_t acked_batches_ = 0;
  std::size_t acked_records_ = 0;
  StorageCounters wal_written_;
  StorageCounters checkpoint_written_;
  double resident_mb_ = 0.0;
  /// The last cycle's acknowledged records and crashed directories.
  std::vector<px::ExecutionRecord> acked_;
  Dirs crashed_;
  std::size_t final_rows_ = 0;
};

IngestLive::IngestLive(const RunOptions& options)
    : options_(options),
      run_(options),
      inputs_([&] {
        const Clock::time_point start = Clock::now();
        IngestInputs inputs =
            MakeIngestInputs(options.seed, kSeedRows, kGrowth, kRotateRows,
                             kQuestions);
        input_ms_ = MsSince(start);
        return inputs;
      }()),
      engine_options_(EngineOptionsFor(
          kThreads, px::SimButDiffOptions{}.pair_code_budget_bytes)),
      budget_(engine_options_.sim_but_diff.pair_code_budget_bytes),
      sim_(engine_options_.sim_but_diff.pair.sim_fraction) {
  policy_.max_delta_rows = kRotateRows;
  policy_.max_delta_age_ms = 0;
  policy_.promote_threads = kThreads;
  policy_.drain_generations = 1;
  root_ = options.work_dir + "/ingest-live-" +
          std::to_string(static_cast<long>(getpid()));
}

Dirs IngestLive::FreshDirs(const std::string& name) const {
  const std::string root = root_ + "/" + name;
  stdfs::remove_all(root);
  stdfs::create_directories(root);
  return Dirs{root, root + "/wal", root + "/ckpt"};
}

px::DurabilityOptions IngestLive::Durability(const Dirs& dirs) const {
  px::DurabilityOptions durability;
  durability.wal_dir = dirs.wal;
  durability.checkpoint_dir = dirs.checkpoint;
  durability.wal.fsync = px::FsyncMode::kEveryBatch;
  durability.checkpoint_on_rotate = true;
  return durability;
}

std::unique_ptr<px::LiveEngine> IngestLive::SetUp(const Dirs& dirs,
                                                  CountingFileSystem& fs) {
  px::ExecutionLog handed = inputs_.seed_log;
  const Clock::time_point start = Clock::now();
  run_.Attempt();
  px::Result<std::unique_ptr<px::LiveEngine>> live = [&] {
    Tracer::Scope span(run_.tracer, "serving.recover");
    return px::LiveEngine::Recover(std::move(handed), Durability(dirs),
                                   engine_options_, policy_, nullptr, &fs);
  }();
  if (!live.ok()) {
    run_.Fail("recover on fresh directories: " + live.status().ToString());
    return nullptr;
  }
  {
    Tracer::Scope span(run_.tracer, "features.plane_build");
    PX_CHECK((*live)->engine()->snapshot()->pair_codes().Acquire(
                 sim_, budget_, kThreads) != nullptr);
  }
  {
    Tracer::Scope span(run_.tracer, "ml.relief_rank");
    Ask(run_, **live, inputs_.questions[0], px::Technique::kRuleOfThumb,
        kThreads);
  }
  setup_s_.Add(MsSince(start) / 1000.0, kSetupReferenceSamples);
  return std::move(live).value();
}

void IngestLive::IngestClient(px::LiveEngine& live, CountingFileSystem& fs,
                              std::size_t wal, std::size_t checkpoint,
                              CycleSync& sync) {
  const Clock::time_point start = Clock::now();
  double waited_ms = 0.0;
  std::size_t rotations = 0;
  for (const RenderedJob& job : inputs_.jobs) {
    std::vector<px::ExecutionRecord> batch;
    double sink_ms = 0.0;
    run_.Attempt();
    const Clock::time_point parse_start = Clock::now();
    const px::Status parsed = [&] {
      Tracer::Scope span(run_.tracer, "ingest.parse");
      return px::IngestJobStream(
          job.history, job.ganglia, job_schema_, task_schema_,
          // Job-level records are not served by the task-level engine.
          [](px::ExecutionRecord) { return px::Status::OK(); },
          [&](px::ExecutionRecord record) {
            const Clock::time_point sink_start = Clock::now();
            batch.push_back(std::move(record));
            sink_ms += MsSince(sink_start);
            return px::Status::OK();
          });
    }();
    const double parse_ms = MsSince(parse_start) - sink_ms;
    if (!parsed.ok() || batch.size() != job.task_records) {
      run_.Fail("ingest parse: " + parsed.ToString());
      continue;
    }
    run_.samples.Add("ingest.parse_ms", parse_ms);
    run_.samples.Add("ingest.records", static_cast<double>(batch.size()));

    // The auto-rotation trigger: this append will promote.
    if (live.pending_rows() + batch.size() >= kRotateRows) {
      waited_ms += sync.AwaitQuota(live.generation());
    }
    std::vector<px::ExecutionRecord> copy = batch;
    const StorageCounters wal_before = fs.Counters(wal);
    const StorageCounters checkpoint_before = fs.Counters(checkpoint);
    const std::uint64_t rotations_before = live.rotations();
    run_.Attempt();
    const Clock::time_point append_start = Clock::now();
    const px::Status appended = [&] {
      Tracer::Scope span(run_.tracer, "serving.append_batch");
      return live.AppendBatch(std::move(batch));
    }();
    const double ack_ms = MsSince(append_start);
    if (!appended.ok()) {
      run_.Fail("append: " + appended.ToString());
      continue;
    }
    append_ack_ms_.push_back(ack_ms);
    ++acked_batches_;
    for (px::ExecutionRecord& record : copy) acked_.push_back(std::move(record));

    // Storage time inside the append: the WAL write and its barrier; a
    // rotating append also checkpoints (part of the rotation).
    const StorageCounters wal_delta = fs.Counters(wal) - wal_before;
    const double wal_ms = wal_delta.write_ms + wal_delta.fsync_ms;
    if (live.rotations() > rotations_before) {
      ++rotations;
      // Read right after the rotating append returns: the new
      // generation's plane is warm only if the rotation seeded it.
      if (live.engine()->snapshot()->pair_codes().warm(sim_)) {
        ++seeded_rotations_;
      }
      const StorageCounters checkpoint_delta =
          fs.Counters(checkpoint) - checkpoint_before;
      run_.samples.Add("serving.rotate_ms", ack_ms - wal_ms);
      run_.samples.Add("storage.checkpoint_ms", checkpoint_delta.write_ms +
                                                    checkpoint_delta.fsync_ms);
      run_.samples.Add(
          "storage.checkpoint_mb",
          static_cast<double>(checkpoint_delta.bytes_written) / 1e6);
    } else {
      run_.samples.Add("serving.stage_ms", ack_ms - wal_ms);
    }
    sync.Notify(false);
  }
  // The last generation gets its requests too; waits are not ingest time.
  waited_ms += sync.AwaitQuota(live.generation());
  records_per_s_.push_back(static_cast<double>(acked_.size()) /
                           ((MsSince(start) - waited_ms) / 1000.0));
  rotations_.push_back(static_cast<double>(rotations));
  sync.Notify(true);
}

void IngestLive::QueryClient(const px::LiveEngine& live, CycleSync& sync,
                             Latencies& latencies) {
  const std::vector<Question>& questions = inputs_.questions;
  std::uint64_t generation = live.generation();
  std::size_t asked = 0;  // requests on `generation`
  std::size_t next = 0;
  for (;;) {
    if (asked >= kRequestsPerGeneration) {
      sync.QuotaMet(generation);
      std::unique_lock<std::mutex> lock(sync.mutex);
      sync.changed.wait(lock, [&] {
        return sync.done || live.generation() != generation;
      });
      if (sync.done) return;
    }
    if (live.generation() != generation) {
      // First PerfXplain, SimButDiff and RuleOfThumb answers on the new
      // generation; RuleOfThumb pays the generation's RReliefF ranking.
      generation = live.generation();
      asked = 0;
      const Clock::time_point start = Clock::now();
      bool ok = true;
      for (px::Technique technique :
           {px::Technique::kPerfXplain, px::Technique::kSimButDiff,
            px::Technique::kRuleOfThumb}) {
        const Question& question = questions[next++ % questions.size()];
        Tracer::Scope span(run_.tracer,
                           technique == px::Technique::kRuleOfThumb
                               ? "ml.relief_rank"
                               : "client.first_answer");
        const Answer answer = Ask(run_, live, question, technique, kThreads);
        ok = ok && answer.ok;
        if (answer.ok && technique != px::Technique::kRuleOfThumb) {
          latencies.Add(technique, answer.ms);
          ++asked;
        }
      }
      if (ok) first_answer_ms_.push_back(MsSince(start));
      continue;
    }
    const Question& question = questions[next++ % questions.size()];
    run_.samples.Add("serving.pending_rows_at_read",
                     static_cast<double>(live.pending_rows()));
    const Answer answer =
        Ask(run_, live, question, question.technique, kThreads);
    ++asked;
    if (!answer.ok) continue;
    latencies.Add(question.technique, answer.ms);
    if (question.technique == px::Technique::kSimButDiff) {
      RecordTiles(run_, answer.response);
    }
    if (run_.tracer.enabled() &&
        question.technique == px::Technique::kPerfXplain) {
      const std::shared_ptr<const px::Engine> engine = live.engine();
      if (engine->snapshot() == answer.prepared.snapshot()) {
        ReplayStaged(run_, *engine, answer, kThreads);
      }
    }
  }
}

void IngestLive::Cycle(std::size_t index) {
  const bool traced = options_.trace && index >= 1;
  run_.tracer.set_enabled(traced);
  if (!crashed_.root.empty()) stdfs::remove_all(crashed_.root);
  crashed_ = FreshDirs("cycle" + std::to_string(index));
  CountingFileSystem fs;
  const std::size_t wal = fs.AddDomain(crashed_.wal);
  const std::size_t checkpoint = fs.AddDomain(crashed_.checkpoint);
  std::unique_ptr<px::LiveEngine> live = SetUp(crashed_, fs);
  if (live == nullptr) return;
  const StorageCounters wal_base = fs.Counters(wal);
  const StorageCounters checkpoint_base = fs.Counters(checkpoint);
  const std::size_t fsync_base = fs.FsyncSamples(wal).size();

  acked_.clear();
  CycleSync sync;
  std::thread ingest(
      [&] { IngestClient(*live, fs, wal, checkpoint, sync); });
  QueryClient(*live, sync, traced ? traced_ : untraced_);
  ingest.join();

  if (live->pending_rows() == 0) {
    run_.Fail("guard: ingest ended without an unrotated WAL tail");
  }
  if (live->auto_rotate_failures() != 0) run_.Fail("auto-rotation failed");
  acked_records_ += acked_.size();
  wal_written_ += fs.Counters(wal) - wal_base;
  checkpoint_written_ += fs.Counters(checkpoint) - checkpoint_base;
  const std::vector<double> fsyncs = fs.FsyncSamples(wal);
  for (std::size_t i = fsync_base; i < fsyncs.size(); ++i) {
    run_.samples.Add("storage.fsync_ms", fsyncs[i]);
  }
  resident_mb_ = ResidentMb(*live->engine()->snapshot());
  // The crash: the engine is dropped with its WAL tail unrotated.
  live.reset();
}

void IngestLive::Recoveries() {
  px::ExecutionLog expected = inputs_.seed_log;
  for (const px::ExecutionRecord& record : acked_) {
    PX_CHECK(expected.Add(record).ok());
  }
  final_rows_ = expected.size();
  const std::string expected_csv = expected.ToCsvText();
  std::vector<const Question*> probes;
  for (const Question& question : inputs_.questions) {
    if (question.technique == px::Technique::kPerfXplain &&
        probes.size() < kProbes) {
      probes.push_back(&question);
    }
  }
  std::vector<std::string> cold_answers;
  {
    std::shared_ptr<const px::LogSnapshot> snapshot;
    {
      Tracer::Scope span(run_.tracer, "log.snapshot_build");
      snapshot = std::make_shared<const px::LogSnapshot>(expected);
    }
    const px::Engine cold(snapshot, EngineOptionsFor(kColdThreads, budget_));
    for (const Question* probe : probes) {
      const Answer answer = Ask(run_, cold, *probe,
                                px::Technique::kPerfXplain, kColdThreads);
      cold_answers.push_back(
          answer.ok ? Canonical(answer.response.explanation) : "");
    }
  }

  for (std::size_t r = 0; r < kRecoveries; ++r) {
    const Dirs copy = FreshDirs("recover");
    stdfs::copy(crashed_.root, copy.root, stdfs::copy_options::recursive);
    CountingFileSystem fs;
    px::ExecutionLog handed = inputs_.seed_log;
    px::RecoveryStats stats;
    run_.Attempt();
    const Clock::time_point start = Clock::now();
    px::Result<std::unique_ptr<px::LiveEngine>> live = [&] {
      Tracer::Scope span(run_.tracer, "serving.recover");
      return px::LiveEngine::Recover(std::move(handed), Durability(copy),
                                     engine_options_, policy_, &stats, &fs);
    }();
    if (!live.ok()) {
      run_.Fail("recover: " + live.status().ToString());
      continue;
    }
    const StorageCounters read = fs.Total();
    std::vector<std::string> answers;
    for (const Question* probe : probes) {
      const Answer answer =
          Ask(run_, **live, *probe, px::Technique::kPerfXplain, kThreads);
      answers.push_back(answer.ok ? Canonical(answer.response.explanation)
                                  : "");
      // recover_s: Recover plus the first PerfXplain answer.
      if (answers.size() == 1) recover_s_.push_back(MsSince(start) / 1000.0);
    }
    if (answers != cold_answers) {
      run_.Fail("recovered engine answers a probe unlike a cold engine");
    }
    if ((*live)->engine()->log().ToCsvText() != expected_csv ||
        (*live)->pending_rows() != 0) {
      run_.Fail("recovered rows differ from seed rows + acknowledged records");
    }
    if (stats.replayed_records == 0) {
      run_.Fail("guard: recovery replayed no WAL record");
    }
    run_.samples.Add("storage.recover_read_mb",
                     static_cast<double>(read.bytes_read) / 1e6);
    run_.samples.Add("storage.recover_read_ms", read.read_ms);
    run_.samples.Add("storage.replayed_records",
                     static_cast<double>(stats.replayed_records));
    live->reset();
    stdfs::remove_all(copy.root);
  }
}

RunResult IngestLive::Execute() {
  stdfs::create_directories(root_);
  for (std::size_t s = 0; s + 1 < kIngestSetups; ++s) {
    const Dirs dirs = FreshDirs("setup");
    CountingFileSystem fs;
    SetUp(dirs, fs);
  }
  // A traced run measures its first cycle untraced and the rest traced.
  const std::size_t cycles = std::max<std::size_t>(
      options_.trace ? 2 : 1,
      static_cast<std::size_t>(options_.seconds / kSecondsPerCycle));
  for (std::size_t c = 0; c < cycles; ++c) Cycle(c);
  run_.tracer.set_enabled(options_.trace);
  if (!crashed_.root.empty()) Recoveries();
  run_.tracer.set_enabled(false);

  RunResult result;
  Report(result);
  stdfs::remove_all(root_);
  return result;
}

void IngestLive::Report(RunResult& result) {
  run_.Finish(result);
  const double peak_rss = PeakRssMb();
  const LatencySummary append_ack = Summarize(append_ack_ms_);

  Json& report = result.report;
  ReportSetup(report, setup_s_, untraced_);
  ReportLatency(report, "perfxplain", untraced_.perfxplain);
  ReportLatency(report, "simbutdiff", untraced_.simbutdiff);
  report.Metric("ingest_records_per_s", Median(records_per_s_), "1/s");
  report.Metric("append_ack_p50_ms", append_ack.p50, "ms");
  if (append_ack.p90.has_value()) {
    report.Metric("append_ack_p90_ms", *append_ack.p90, "ms");
  } else {
    report.Null("append_ack_p90_ms");
  }
  report.Obj("append_ack_samples",
             Json()
                 .Int("count", static_cast<std::int64_t>(append_ack.count))
                 .Num("percentile", append_ack.tail_pct)
                 .Num("value_ms", append_ack.tail));
  report.Metric("first_answer_ms", Median(first_answer_ms_), "ms");
  report.Int("first_answer_samples",
             static_cast<std::int64_t>(first_answer_ms_.size()));
  report.Metric("recover_s", Median(recover_s_), "s");
  report.Int("recover_samples", static_cast<std::int64_t>(recover_s_.size()));
  report.Metric("peak_rss_mb", peak_rss, "MB");
  ReportErrorRate(report, result);
  report.Obj(
      "sizes",
      Json()
          .Int("seed_rows", static_cast<std::int64_t>(inputs_.seed_log.size()))
          .Int("final_rows", static_cast<std::int64_t>(final_rows_))
          .Int("jobs_ingested_per_cycle",
               static_cast<std::int64_t>(inputs_.jobs.size()))
          .Int("records_ingested_per_cycle",
               static_cast<std::int64_t>(inputs_.ingest_records))
          .Num("rotations_per_cycle", Median(rotations_))
          .Int("ingest_cycles", static_cast<std::int64_t>(rotations_.size()))
          .Int("questions", static_cast<std::int64_t>(inputs_.questions.size()))
          .Int("final_plane_bytes",
               static_cast<std::int64_t>(px::PairCodeStore::BytesNeeded(
                   final_rows_, task_schema_.size())))
          .Int("pair_code_budget_bytes", static_cast<std::int64_t>(budget_))
          .Num("input_generation_ms", input_ms_));
  report.Obj(
      "settings",
      Json()
          .Str("client_model",
               "closed loop: 1 query client (" +
                   std::to_string(kRequestsPerGeneration) +
                   " requests per generation) + 1 ingest client (one "
                   "AppendBatch per job)")
          .Int("explain_threads", kThreads)
          .Int("simbutdiff_threads", kThreads)
          .Int("relief_threads", kThreads)
          .Int("promote_threads", kThreads)
          .Int("cold_check_threads", kColdThreads)
          .Int("max_delta_rows", static_cast<std::int64_t>(kRotateRows))
          .Str("fsync", "every batch")
          .Bool("checkpoint_on_rotate", true)
          .Str("promoter_thread", "none: rotation runs inside AppendBatch")
          .Str("wal_fs_type", FilesystemType(options_.work_dir))
          .Str("result_cache", "off"));

  if (!options_.trace) {
    result.metrics = EndToEnd(setup_s_, untraced_, peak_rss);
    return;
  }
  // Bytes of the acknowledged records as CSV rows, the unit of write_amp.
  px::ExecutionLog acked_log(task_schema_);
  for (const px::ExecutionRecord& record : acked_) {
    PX_CHECK(acked_log.Add(record).ok());
  }
  const double csv_bytes_per_record =
      acked_.empty()
          ? 0.0
          : static_cast<double>(
                acked_log.ToCsvText().size() -
                px::ExecutionLog(task_schema_).ToCsvText().size()) /
                static_cast<double>(acked_.size());
  const double acked_records = static_cast<double>(acked_records_);
  const double total_rotations = [&] {
    double total = 0.0;
    for (double r : rotations_) total += r;
    return total;
  }();
  auto median_sample = [&](const char* name) {
    return Median(run_.samples.Get(name));
  };
  result.metrics = PerLayer(
      run_,
      {
          {"log.rows", static_cast<double>(final_rows_)},
          {"features.resident_mb", resident_mb_},
          {"ingest.parse_ms_per_job", median_sample("ingest.parse_ms")},
          {"ingest.records_per_job", Mean(run_.samples.Get("ingest.records"))},
          {"serving.stage_ms", median_sample("serving.stage_ms")},
          {"serving.rotate_ms", median_sample("serving.rotate_ms")},
          {"serving.rotations", Median(rotations_)},
          {"serving.plane_seeded_ratio",
           total_rotations > 0 ? seeded_rotations_ / total_rotations : 0.0},
          {"serving.pending_rows_at_read",
           median_sample("serving.pending_rows_at_read")},
          {"storage.fsyncs_per_batch",
           acked_batches_ > 0 ? static_cast<double>(wal_written_.fsyncs) /
                                    static_cast<double>(acked_batches_)
                              : 0.0},
          {"storage.fsync_ms", median_sample("storage.fsync_ms")},
          {"storage.wal_bytes_per_record",
           acked_records > 0
               ? static_cast<double>(wal_written_.bytes_written) /
                     acked_records
               : 0.0},
          {"storage.write_amp",
           acked_records > 0 && csv_bytes_per_record > 0
               ? static_cast<double>(wal_written_.bytes_written +
                                     checkpoint_written_.bytes_written) /
                     (csv_bytes_per_record * acked_records)
               : 0.0},
          {"storage.checkpoint_ms", median_sample("storage.checkpoint_ms")},
          {"storage.checkpoint_mb", median_sample("storage.checkpoint_mb")},
          {"storage.recover_read_mb",
           median_sample("storage.recover_read_mb")},
          {"storage.recover_read_ms",
           median_sample("storage.recover_read_ms")},
          {"storage.replayed_records",
           median_sample("storage.replayed_records")},
      },
      untraced_, traced_);
  run_.WriteSpans();
}

}  // namespace

RunResult RunIngestLive(const RunOptions& options) {
  return IngestLive(options).Execute();
}

}  // namespace perfbench
