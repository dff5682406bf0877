#include "inputs.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common.h"
#include "common/logging.h"
#include "common/random.h"
#include "features/pair_code_store.h"
#include "harness.h"
#include "ingest/ganglia_dump.h"
#include "ingest/hadoop_history.h"
#include "ingest/ingest.h"
#include "log/catalog.h"
#include "simulator/trace_generator.h"

namespace perfbench {

namespace px = perfxplain;
namespace names = perfxplain::feature_names;

namespace {

/// explain-spill's pair-code budget is this fraction of the full plane:
/// below the half of the rows even a selective request scans.
constexpr std::size_t kSpillBudgetDivisor = 8;
/// Threads that render and parse ingest-live's jobs. Input generation is
/// never timed and nothing else runs beside it.
constexpr unsigned kRenderThreads = 4;

constexpr char kLastTaskFaster[] =
    "DESPITE jobID_isSame = T AND inputsize_compare = SIM AND "
    "hostname_isSame = T "
    "OBSERVED duration_compare = LT EXPECTED duration_compare = SIM";

/// "FOR J1, J2 WHERE J1.id = '<first>' AND J2.id = '<second>' <clauses>".
std::string QuestionText(const std::string& first_id,
                         const std::string& second_id,
                         const std::string& clauses) {
  return "FOR J1, J2 WHERE J1.id = '" + first_id + "' AND J2.id = '" +
         second_id + "' " + clauses;
}

/// Ordered pairs (a, b), a != b, of rows that agree on `keys`, shuffled by
/// `rng`: the candidate pairs of a question family whose despite clause
/// asks for those features to be the same.
std::vector<std::pair<std::size_t, std::size_t>> SameKeyPairs(
    const px::ExecutionLog& log, const std::vector<std::string>& keys,
    px::Rng& rng) {
  std::vector<std::size_t> columns;
  for (const std::string& key : keys) {
    columns.push_back(log.schema().IndexOf(key));
  }
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t r = 0; r < log.size(); ++r) {
    std::string group;
    for (std::size_t c : columns) {
      group += log.at(r).values[c].ToString();
      group += '\x1f';
    }
    groups[group].push_back(r);
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& [key, rows] : groups) {
    for (std::size_t a : rows) {
      for (std::size_t b : rows) {
        if (a != b) pairs.emplace_back(a, b);
      }
    }
  }
  rng.Shuffle(pairs);
  return pairs;
}

/// Hands the heap that input generation freed (cold engines, parsed
/// records, the render threads' arenas) back to the system, so that
/// peak_rss_mb measures the workload and not the checks of its inputs.
void ReleaseFreedMemory() { malloc_trim(0); }

/// Canonical() of `engine`'s answer to `pxql` with `technique` at
/// kColdThreads enumeration threads, or nothing when it has none.
std::optional<std::string> AnswerOf(const px::Engine& engine,
                                    const std::string& pxql,
                                    px::Technique technique) {
  auto prepared = engine.PrepareText(pxql);
  if (!prepared.ok()) return std::nullopt;
  auto response =
      engine.Explain(*prepared, MakeRequest(technique, kColdThreads));
  if (!response.ok()) return std::nullopt;
  return Canonical(response->explanation);
}

using Clauses =
    std::function<std::pair<std::string, bool>(std::size_t, std::size_t)>;

/// Keeps candidates whose question satisfies Definition 1 on `engine` and
/// that `answerable` accepts, until `count` are found; techniques
/// alternate PerfXplain, SimButDiff. `clauses(index, first_row)` gives
/// the question's DESPITE/OBSERVED/EXPECTED text and whether it is
/// selective. `answerable` may fill in Question::answer.
std::vector<Question> DrawQuestions(
    const px::Engine& engine,
    const std::vector<std::pair<std::size_t, std::size_t>>& candidates,
    std::size_t count, const Clauses& clauses,
    const std::function<bool(Question&)>& answerable) {
  const px::ExecutionLog& log = engine.log();
  std::vector<Question> questions;
  for (const auto& [a, b] : candidates) {
    if (questions.size() >= count) break;
    const std::size_t index = questions.size();
    auto [text, selective] = clauses(index, a);
    Question question;
    question.pxql = QuestionText(log.at(a).id, log.at(b).id, text);
    auto prepared = engine.PrepareText(question.pxql);
    if (!prepared.ok() || !prepared->definition1().ok()) continue;
    question.technique = index % 2 == 0 ? px::Technique::kPerfXplain
                                        : px::Technique::kSimButDiff;
    question.selective = selective;
    if (!answerable(question)) continue;
    questions.push_back(std::move(question));
  }
  PX_CHECK(!questions.empty()) << "no drawn question can be answered";
  return questions;
}

/// Draws an explain workload's questions on a cold engine over its rows
/// and budget, keeping those the engine answers with their own technique,
/// together with that answer.
void DrawExplainQuestions(
    ExplainInputs& inputs,
    const std::vector<std::pair<std::size_t, std::size_t>>& candidates,
    std::size_t count, const Clauses& clauses) {
  ReleaseFreedMemory();
  {
    const px::Engine cold(
        inputs.log,
        EngineOptionsFor(kColdThreads, inputs.pair_code_budget_bytes));
    inputs.questions = DrawQuestions(
        cold, candidates, count, clauses, [&](Question& question) {
          std::optional<std::string> answer =
              AnswerOf(cold, question.pxql, question.technique);
          if (!answer.has_value()) return false;
          question.answer = std::move(*answer);
          return true;
        });
  }
  ReleaseFreedMemory();
}

/// Runs `work(i)` for every i < n on kRenderThreads threads.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& work) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kRenderThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) work(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

ExplainInputs MakeResidentInputs(std::uint64_t seed, std::size_t count) {
  px::bench::HarnessOptions options;
  options.trace_seed = seed;
  options.threads = 1;
  px::bench::Fixture fixture = px::bench::Fixture::TaskLevel(options);
  ExplainInputs inputs;
  inputs.log = fixture.full_log();
  inputs.pair_code_budget_bytes =
      px::SimButDiffOptions{}.pair_code_budget_bytes;
  px::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const auto candidates =
      SameKeyPairs(inputs.log, {names::kJobId, names::kHostname}, rng);
  DrawExplainQuestions(inputs, candidates, count,
                       [](std::size_t, std::size_t) {
                         return std::make_pair(std::string(kLastTaskFaster),
                                               false);
                       });
  return inputs;
}

ExplainInputs MakeSpillInputs(std::uint64_t seed, std::size_t count) {
  // GenerateTrace's loop and random stream, keeping only the job-level
  // records (the 2,700 jobs' task log is never needed here).
  px::TraceOptions trace_options;
  px::Rng rng(seed);
  const px::ExciteStats stats =
      px::MeasureExciteStats(px::GenerateExciteLog(trace_options.excite, rng));
  ExplainInputs inputs;
  inputs.log = px::ExecutionLog(px::MakeJobSchema());
  double clock = 0.0;
  for (int sweep = 0; sweep < 5; ++sweep) {
    for (px::JobConfig& config : px::MakeTable2Grid(sweep * 540)) {
      config.submit_time = clock;
      auto job = px::SimulateJob(config, trace_options.cluster, stats,
                                 trace_options.costs, rng);
      PX_CHECK(job.ok()) << job.status().ToString();
      PX_CHECK(inputs.log
                   .Add(px::JobToRecord(inputs.log.schema(), *job,
                                        trace_options.epoch_offset))
                   .ok());
      clock = job->finish_time +
              rng.Exponential(trace_options.inter_job_gap_seconds);
    }
  }
  inputs.pair_code_budget_bytes =
      px::PairCodeStore::BytesNeeded(inputs.log.size(),
                                     inputs.log.schema().size()) /
      kSpillBudgetDivisor;
  px::Rng draw(seed * 0x9E3779B97F4A7C15ull + 2);
  const auto candidates = SameKeyPairs(
      inputs.log, {names::kNumInstances, names::kPigScript}, draw);
  const std::size_t script = inputs.log.schema().IndexOf(names::kPigScript);
  const px::ExecutionLog& log = inputs.log;
  DrawExplainQuestions(
      inputs, candidates, count,
      [&log, script](std::size_t index, std::size_t a) {
        // Pairs of questions (one PerfXplain, one SimButDiff) in four: the
        // fourth pair is selective.
        const bool selective = (index / 2) % 4 == 3;
        const std::string despite =
            selective ? "DESPITE numinstances_isSame = T AND pigscript = " +
                            log.at(a).values[script].nominal()
                      : std::string("DESPITE numinstances_isSame = T AND "
                                    "pigscript_isSame = T");
        return std::make_pair(despite +
                                  " OBSERVED duration_compare = GT "
                                  "EXPECTED duration_compare = SIM",
                              selective);
      });
  return inputs;
}

IngestInputs MakeIngestInputs(std::uint64_t seed, std::size_t seed_rows,
                              double growth, std::size_t rotate_rows,
                              std::size_t question_count) {
  // The GenerateTrace loop, over a seed-shuffled Table-2 grid, keeping each
  // simulated job so it can be rendered to the cluster's text artifacts.
  px::TraceOptions trace_options;
  px::Rng rng(seed);
  const px::ExciteStats stats =
      px::MeasureExciteStats(px::GenerateExciteLog(trace_options.excite, rng));
  std::vector<px::JobConfig> grid = px::MakeTable2Grid();
  rng.Shuffle(grid);

  IngestInputs inputs;
  inputs.seed_log = px::ExecutionLog(px::MakeTaskSchema());
  const std::size_t target =
      static_cast<std::size_t>(growth * static_cast<double>(seed_rows));
  double clock = 0.0;
  std::size_t staged = 0;  // records an engine would hold unrotated
  std::vector<px::SimJob> ingested;
  // Job indexes after which the engine rotates: its generations.
  std::vector<std::size_t> rotating;
  for (px::JobConfig& config : grid) {
    if (inputs.seed_log.size() >= seed_rows &&
        inputs.ingest_records >= target && staged > 0) {
      break;
    }
    config.submit_time = clock;
    auto job = px::SimulateJob(config, trace_options.cluster, stats,
                               trace_options.costs, rng);
    PX_CHECK(job.ok()) << job.status().ToString();
    clock = job->finish_time + rng.Exponential(trace_options.inter_job_gap_seconds);
    if (inputs.seed_log.size() < seed_rows) {
      for (const px::SimTask& task : job->tasks) {
        PX_CHECK(inputs.seed_log
                     .Add(px::TaskToRecord(inputs.seed_log.schema(), *job,
                                           task, trace_options.epoch_offset))
                     .ok());
      }
      continue;
    }
    inputs.ingest_records += job->tasks.size();
    staged += job->tasks.size();
    if (staged >= rotate_rows) {
      staged = 0;
      rotating.push_back(ingested.size());
    }
    ingested.push_back(std::move(job).value());
  }
  PX_CHECK(inputs.ingest_records >= target) << "Table-2 grid exhausted";

  // Rendering is input generation, never timed; each job is also parsed
  // here, for the rows of the generations the questions are checked on.
  {
    const px::Schema job_schema = px::MakeJobSchema();
    inputs.jobs.resize(ingested.size());
    std::vector<std::vector<px::ExecutionRecord>> records(ingested.size());
    ParallelFor(ingested.size(), [&](std::size_t i) {
      RenderedJob& rendered = inputs.jobs[i];
      rendered.history =
          px::WriteJobHistory(ingested[i], trace_options.epoch_offset);
      rendered.ganglia =
          px::WriteGangliaDump(ingested[i], trace_options.epoch_offset);
      rendered.task_records = ingested[i].tasks.size();
      PX_CHECK(px::IngestJobStream(
                   rendered.history, rendered.ganglia, job_schema,
                   inputs.seed_log.schema(),
                   [](px::ExecutionRecord) { return px::Status::OK(); },
                   [&](px::ExecutionRecord record) {
                     records[i].push_back(std::move(record));
                     return px::Status::OK();
                   })
                   .ok());
    });

    // Cold engines over the seed rows and over the rows of every later
    // generation.
    const px::EngineOptions cold_options = EngineOptionsFor(
        kColdThreads, px::SimButDiffOptions{}.pair_code_budget_bytes);
    const px::Engine engine(inputs.seed_log, cold_options);
    std::vector<std::unique_ptr<const px::Engine>> generations;
    px::ExecutionLog rows = inputs.seed_log;
    std::size_t job = 0;
    for (std::size_t last : rotating) {
      for (; job <= last; ++job) {
        for (const px::ExecutionRecord& record : records[job]) {
          PX_CHECK(rows.Add(record).ok());
        }
      }
      generations.push_back(
          std::make_unique<const px::Engine>(rows, cold_options));
    }

    px::Rng draw(seed * 0x9E3779B97F4A7C15ull + 3);
    const auto candidates = SameKeyPairs(
        inputs.seed_log, {names::kJobId, names::kHostname}, draw);
    inputs.questions = DrawQuestions(
        engine, candidates, question_count,
        [](std::size_t, std::size_t) {
          return std::make_pair(std::string(kLastTaskFaster), false);
        },
        [&](Question& question) {
          for (px::Technique technique :
               {px::Technique::kPerfXplain, px::Technique::kSimButDiff,
                px::Technique::kRuleOfThumb}) {
            if (!AnswerOf(engine, question.pxql, technique)) return false;
          }
          for (const auto& generation : generations) {
            if (!AnswerOf(*generation, question.pxql,
                          px::Technique::kRuleOfThumb)) {
              return false;
            }
          }
          return true;
        });
    ingested.clear();
  }
  ReleaseFreedMemory();
  return inputs;
}

}  // namespace perfbench
