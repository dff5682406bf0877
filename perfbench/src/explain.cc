// explain-resident and explain-spill: read-only analyst traffic from one
// closed-loop client on a fixed snapshot.
#include <memory>
#include <utility>

#include "common.h"
#include "common/logging.h"
#include "features/pair_code_store.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr std::size_t kWarmupRequests = 50;
constexpr double kWarmupMaxMs = 3000.0;
/// Questions the client cycles. Each is answered once on a cold engine
/// while inputs are generated, so these stay near one run's requests.
constexpr std::size_t kResidentQuestions = 192;
constexpr std::size_t kSpillQuestions = 48;

/// Phases of the measured window: one untraced phase, or in a traced run
/// an untraced half followed by a traced half.
struct Phase {
  bool traced;
  double ms;
};

std::vector<Phase> PhasesFor(const RunOptions& options) {
  const double ms = options.seconds * 1000.0;
  if (!options.trace) return {Phase{false, ms}};
  return {Phase{false, ms / 2}, Phase{true, ms / 2}};
}

}  // namespace

RunResult RunExplain(const RunOptions& options, bool spill) {
  RunState run(options);
  RunResult result;
  const Clock::time_point generation_start = Clock::now();
  ExplainInputs inputs =
      spill ? MakeSpillInputs(options.seed, kSpillQuestions)
            : MakeResidentInputs(options.seed, kResidentQuestions);
  const double input_ms = MsSince(generation_start);
  const std::size_t rows = inputs.log.size();
  const std::size_t plane_bytes =
      px::PairCodeStore::BytesNeeded(rows, inputs.log.schema().size());
  const std::size_t budget = inputs.pair_code_budget_bytes;
  PX_CHECK(spill || plane_bytes <= budget);
  const px::EngineOptions engine_options =
      EngineOptionsFor(kThreads, budget);
  const double sim = engine_options.sim_but_diff.pair.sim_fraction;

  // Set-up: rows handed over -> snapshot + engine (+ resident plane).
  Timings setup_s;
  std::unique_ptr<px::Engine> engine;
  const Clock::time_point setups_start = Clock::now();
  for (std::size_t s = 0;
       s < kSetups || (s < kMaxSetups && MsSince(setups_start) < kSetupMinMs);
       ++s) {
    engine.reset();
    px::ExecutionLog handed = inputs.log;
    const Clock::time_point start = Clock::now();
    std::shared_ptr<const px::LogSnapshot> snapshot;
    {
      Tracer::Scope span(run.tracer, "log.snapshot_build");
      snapshot = std::make_shared<const px::LogSnapshot>(std::move(handed));
    }
    engine = std::make_unique<px::Engine>(snapshot, engine_options);
    if (spill) {
      // The frame arena SimButDiff's first request would allocate.
      PX_CHECK(snapshot->pair_codes().AcquireTilePool(sim, budget) != nullptr);
    } else {
      Tracer::Scope span(run.tracer, "features.plane_build");
      PX_CHECK(snapshot->pair_codes().Acquire(sim, budget, kThreads) !=
               nullptr);
    }
    setup_s.Add(MsSince(start) / 1000.0, kSetupReferenceSamples);
  }

  // Every answer must equal, bitwise, the one a cold engine over the same
  // rows gave at another thread count while the questions were drawn.
  std::size_t next = 0;
  std::size_t verified = 0;
  auto ask_next = [&](Latencies* latencies) {
    const std::size_t index = next++ % inputs.questions.size();
    const Question& question = inputs.questions[index];
    Answer answer = Ask(run, *engine, question, question.technique,
                        kThreads);
    if (!answer.ok) return;
    ++verified;
    if (Canonical(answer.response.explanation) != question.answer) {
      run.Fail("question " + std::to_string(index) +
               " answered unlike on a cold engine");
    }
    if (question.technique == px::Technique::kSimButDiff) {
      RecordTiles(run, answer.response);
      const px::ExplainResponse& r = answer.response;
      if (!spill && (r.tile_hits + r.tile_misses + r.tile_evictions != 0 ||
                     !r.pair_store_hit)) {
        run.Fail("guard: explain-resident SimButDiff left the resident plane");
      }
      if (spill && r.tile_misses == 0) {
        run.Fail("guard: explain-spill SimButDiff fit in the tile budget");
      }
    }
    if (latencies == nullptr) return;
    latencies->Add(question.technique, answer.ms);
    if (run.tracer.enabled() &&
        question.technique == px::Technique::kPerfXplain) {
      ReplayStaged(run, *engine, answer, kThreads);
    }
  };

  // Untimed warm-up: the first requests after a build run slower.
  run.tracer.set_enabled(false);
  const Clock::time_point warmup_start = Clock::now();
  for (std::size_t k = 0;
       k < kWarmupRequests && MsSince(warmup_start) < kWarmupMaxMs; ++k) {
    ask_next(nullptr);
  }

  Latencies untraced;
  Latencies traced;
  for (const Phase& phase : PhasesFor(options)) {
    run.tracer.set_enabled(phase.traced);
    Latencies& latencies = phase.traced ? traced : untraced;
    const Clock::time_point start = Clock::now();
    do {
      ask_next(&latencies);
    } while (MsSince(start) < phase.ms);
  }
  run.tracer.set_enabled(false);
  const double resident_mb = ResidentMb(*engine->snapshot());
  engine.reset();

  run.Finish(result);
  const double peak_rss = PeakRssMb();
  std::size_t selective = 0;
  for (const Question& q : inputs.questions) selective += q.selective ? 1 : 0;

  Json& report = result.report;
  ReportSetup(report, setup_s, untraced);
  ReportLatency(report, "perfxplain", untraced.perfxplain);
  ReportLatency(report, "simbutdiff", untraced.simbutdiff);
  report.Metric("peak_rss_mb", peak_rss, "MB");
  ReportErrorRate(report, result);
  report.Obj("sizes",
             Json()
                 .Int("rows", static_cast<std::int64_t>(rows))
                 .Int("questions",
                      static_cast<std::int64_t>(inputs.questions.size()))
                 .Int("selective_questions",
                      static_cast<std::int64_t>(selective))
                 .Int("plane_bytes", static_cast<std::int64_t>(plane_bytes))
                 .Int("pair_code_budget_bytes",
                      static_cast<std::int64_t>(budget))
                 .Int("verified_on_cold_engine",
                      static_cast<std::int64_t>(verified))
                 .Num("input_generation_ms", input_ms));
  report.Obj("settings",
             Json()
                 .Str("client_model", "closed loop, 1 query client")
                 .Int("explain_threads", kThreads)
                 .Int("simbutdiff_threads", kThreads)
                 .Int("cold_check_threads", kColdThreads)
                 .Int("width", static_cast<std::int64_t>(kWidth))
                 .Int("warmup_requests",
                      static_cast<std::int64_t>(kWarmupRequests))
                 .Str("result_cache", "off"));

  if (options.trace) {
    result.metrics =
        PerLayer(run,
                 {{"log.rows", static_cast<double>(rows)},
                  {"features.resident_mb", resident_mb}},
                 untraced, traced);
    run.WriteSpans();
  } else {
    result.metrics = EndToEnd(setup_s, untraced, peak_rss);
  }
  return result;
}

}  // namespace perfbench
