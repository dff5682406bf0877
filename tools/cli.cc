#include "cli.h"

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/stats.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/formatter.h"
#include "core/pair_enumeration.h"
#include "log/catalog.h"
#include "serving/live_engine.h"
#include "ingest/ganglia_dump.h"
#include "ingest/hadoop_history.h"
#include "ingest/ingest.h"
#include "simulator/trace_generator.h"

namespace perfxplain::cli {

namespace {

constexpr const char kUsage[] = R"(perfxplain - explain MapReduce performance from a log of past executions

usage:
  perfxplain generate --out DIR [--seed N] [--jobs N]
  perfxplain ingest --history FILE --ganglia FILE --out DIR
  perfxplain info --log FILE
  perfxplain explain --log FILE --query PXQL [--query PXQL ...]
                     [--query-file FILE ...] [--width N] [--technique T]
                     [--auto-despite] [--prose] [--threads N]
                     [--deadline-ms N] [--max-candidate-pairs N]
                     [--max-pair-store-bytes N] [--max-training-cells N]
                     [--pair-code-budget-bytes N] [--result-cache-bytes N]
                     [--append-from FILE] [--rotate-rows N]
                     [--wal-dir DIR] [--checkpoint-dir DIR] [--fsync MODE]
                     [--append-delay-ms N] [--print-acks]
  perfxplain recover --log FILE [--wal-dir DIR] [--checkpoint-dir DIR]
                     [--query PXQL ...] [--query-file FILE ...]
                     [--dump-log FILE] [--width N] [--technique T]
                     [--prose] [--threads N]
  perfxplain despite --log FILE --query PXQL [--width N] [--threads N]
  perfxplain help

--query may repeat, and --query-file adds one query per non-empty line
(# starts a comment). With more than one query the batch is answered in
one shot — SimButDiff queries share a single scan over the execution
pairs — and per-query timing is printed.

--threads N sets the worker-thread count of the columnar pair enumeration
(0 = hardware concurrency). Results are identical for every thread count.

--deadline-ms N aborts an explain request that runs longer than N ms with
a DeadlineExceeded error (0 = no deadline). The --max-* options set the
engine's admission-control limits (EngineLimits, 0 = unlimited); a request
whose estimated cost exceeds a limit is rejected up front with a
ResourceExhausted error carrying the estimate.

--pair-code-budget-bytes N caps the memory the SimButDiff pair-code store
may hold resident (default 256 MiB): the whole packed plane when it fits,
a buffer pool of hot row tiles at fractional budgets, pure streaming at 0.
Results are bitwise identical at every budget. --result-cache-bytes N
(default 0 = off) enables a result cache of that many bytes: a repeated
query in one invocation is answered from the cache without any scan.

--append-from FILE exercises live ingest end to end: the queries are
answered on the starting snapshot, FILE's records (a CSV log sharing the
schema) are appended through the serving delta log, the accumulated
deltas are promoted into a fresh snapshot generation (incrementally —
columns extend in place, only new-row pair tiles are packed), and the
queries are re-answered on the new generation. Every response prints the
snapshot generation that answered it. --rotate-rows N additionally
auto-rotates whenever N records are pending (0, the default, promotes
once after the whole file).

--wal-dir DIR makes the --append-from serving engine crash-safe: every
accepted append batch is journaled to DIR and fsynced per --fsync before
it is acknowledged. --checkpoint-dir DIR additionally checkpoints each
promoted snapshot durably and truncates the journal the checkpoint
covers. --fsync MODE is one of: batch (default; fsync every batch), none
(leave durability to the OS page cache), or an integer N (fsync every N
batches). --append-delay-ms N sleeps N ms between appended records and
--print-acks prints "ack ID" after each acknowledged append — both exist
for crash-injection harnesses that kill the process mid-ingest.

recover opens the same --wal-dir/--checkpoint-dir pair after a crash:
newest checkpoint loaded, WAL tail replayed through the validated append
path, torn tail truncated at the last committed batch boundary, replayed
records folded into a served snapshot. --dump-log FILE writes the
recovered log as CSV; --query answers queries on the recovered engine.

Exit codes: 0 success, 3 deadline exceeded, 4 cancelled, 5 rejected by
admission control, 1 any other error.

A PXQL query names its pair of interest and three predicates:
  FOR J1, J2 WHERE J1.JobID = 'job_000054' AND J2.JobID = 'job_000000'
  DESPITE numinstances_isSame = T AND pigscript_isSame = T
  OBSERVED duration_compare = GT
  EXPECTED duration_compare = SIM
)";

/// Parsed --key value options plus positional arguments. `options` keeps
/// the last value per key; `ordered` keeps every (key, value) pair in
/// command-line order so repeatable options (--query, --query-file)
/// preserve their multiplicity and order.
struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::pair<std::string, std::string>> ordered;
  std::vector<std::string> flags;

  bool HasFlag(const std::string& name) const {
    for (const auto& flag : flags) {
      if (flag == name) return true;
    }
    return false;
  }
};

Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (args.empty()) return Status::InvalidArgument("no command given");
  parsed.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    // Boolean flags take no value.
    if (name == "auto-despite" || name == "prose" || name == "print-acks") {
      parsed.flags.push_back(name);
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("missing value for --" + name);
    }
    parsed.options[name] = args[i + 1];
    parsed.ordered.emplace_back(name, args[++i]);
  }
  return parsed;
}

Result<std::string> RequireOption(const ParsedArgs& args,
                                  const std::string& name) {
  auto it = args.options.find(name);
  if (it == args.options.end()) {
    return Status::InvalidArgument("missing required option --" + name);
  }
  return it->second;
}

Result<long long> IntOption(const ParsedArgs& args, const std::string& name,
                            long long default_value) {
  auto it = args.options.find(name);
  if (it == args.options.end()) return default_value;
  return ParseInt(it->second);
}

int Fail(std::ostream& out, const Status& status) {
  out << "error: " << status.ToString() << "\n";
  return ExitCodeForStatus(status);
}

/// First nonzero exit code wins (never OR codes together — 3|5 is not a
/// meaningful code).
int CombineExit(int a, int b) { return a != 0 ? a : b; }

/// Parses --fsync: "batch" (default), "none", or a positive integer N for
/// a barrier every N batches.
Result<WalOptions> WalOptionsFromArgs(const ParsedArgs& args) {
  WalOptions wal;
  auto it = args.options.find("fsync");
  if (it == args.options.end()) return wal;
  const std::string lower = ToLower(it->second);
  if (lower == "batch") {
    wal.fsync = FsyncMode::kEveryBatch;
    return wal;
  }
  if (lower == "none") {
    wal.fsync = FsyncMode::kNone;
    return wal;
  }
  auto every = ParseInt(lower);
  if (!every.ok() || *every < 1) {
    return Status::InvalidArgument(
        "--fsync must be 'batch', 'none' or a positive batch count");
  }
  wal.fsync = FsyncMode::kEveryN;
  wal.fsync_every_n = static_cast<int>(*every);
  return wal;
}

Result<DurabilityOptions> DurabilityFromArgs(const ParsedArgs& args) {
  DurabilityOptions durability;
  if (auto it = args.options.find("wal-dir"); it != args.options.end()) {
    durability.wal_dir = it->second;
  }
  if (auto it = args.options.find("checkpoint-dir");
      it != args.options.end()) {
    durability.checkpoint_dir = it->second;
  }
  auto wal = WalOptionsFromArgs(args);
  if (!wal.ok()) return wal.status();
  durability.wal = *wal;
  return durability;
}

int RunGenerate(const ParsedArgs& args, std::ostream& out) {
  auto dir = RequireOption(args, "out");
  if (!dir.ok()) return Fail(out, dir.status());
  auto seed = IntOption(args, "seed", 42);
  if (!seed.ok()) return Fail(out, seed.status());
  auto jobs = IntOption(args, "jobs", 0);
  if (!jobs.ok()) return Fail(out, jobs.status());

  TraceOptions options;
  options.seed = static_cast<std::uint64_t>(*seed);
  if (*jobs > 0) {
    auto grid = MakeTable2Grid();
    if (static_cast<std::size_t>(*jobs) < grid.size()) {
      grid.resize(static_cast<std::size_t>(*jobs));
    }
    options.jobs = std::move(grid);
  }
  out << "simulating trace (seed " << *seed << ")...\n";
  auto trace_or = GenerateTrace(options);
  if (!trace_or.ok()) return Fail(out, trace_or.status());
  const Trace& trace = *trace_or;
  const std::string job_path = *dir + "/job_log.csv";
  const std::string task_path = *dir + "/task_log.csv";
  Status status = trace.job_log.SaveCsv(job_path);
  if (!status.ok()) return Fail(out, status);
  status = trace.task_log.SaveCsv(task_path);
  if (!status.ok()) return Fail(out, status);
  out << "wrote " << job_path << " (" << trace.job_log.size()
      << " jobs) and " << task_path << " (" << trace.task_log.size()
      << " tasks)\n";
  return 0;
}

int RunIngest(const ParsedArgs& args, std::ostream& out) {
  auto history = RequireOption(args, "history");
  if (!history.ok()) return Fail(out, history.status());
  auto ganglia = RequireOption(args, "ganglia");
  if (!ganglia.ok()) return Fail(out, ganglia.status());
  auto dir = RequireOption(args, "out");
  if (!dir.ok()) return Fail(out, dir.status());

  const std::string job_path = *dir + "/job_log.csv";
  const std::string task_path = *dir + "/task_log.csv";
  // Append to existing logs when present so several jobs can be ingested
  // one after another.
  ExecutionLog job_log(MakeJobSchema());
  ExecutionLog task_log(MakeTaskSchema());
  if (auto existing = ExecutionLog::LoadCsv(job_path); existing.ok()) {
    job_log = std::move(existing).value();
  }
  if (auto existing = ExecutionLog::LoadCsv(task_path); existing.ok()) {
    task_log = std::move(existing).value();
  }
  Status status = IngestJobFiles(*history, *ganglia, job_log, task_log);
  if (!status.ok()) return Fail(out, status);
  status = job_log.SaveCsv(job_path);
  if (!status.ok()) return Fail(out, status);
  status = task_log.SaveCsv(task_path);
  if (!status.ok()) return Fail(out, status);
  out << "ingested into " << job_path << " (" << job_log.size()
      << " jobs) and " << task_path << " (" << task_log.size()
      << " tasks)\n";
  return 0;
}

int RunInfo(const ParsedArgs& args, std::ostream& out) {
  auto path = RequireOption(args, "log");
  if (!path.ok()) return Fail(out, path.status());
  auto log = ExecutionLog::LoadCsv(*path);
  if (!log.ok()) return Fail(out, log.status());
  out << *path << ": " << log->size() << " records, "
      << log->schema().size() << " features\n";
  const std::size_t f_duration =
      log->schema().IndexOf(feature_names::kDuration);
  if (f_duration != Schema::kNotFound) {
    RunningStat durations;
    for (const auto& record : log->records()) {
      const Value& value = record.values[f_duration];
      if (value.is_numeric()) durations.Add(value.number());
    }
    out << StrFormat("duration: mean %.1f s, min %.1f s, max %.1f s\n",
                     durations.mean(), durations.min(), durations.max());
  }
  out << "features:\n";
  for (const auto& def : log->schema().defs()) {
    out << "  " << def.name << " ("
        << (def.kind == ValueKind::kNumeric ? "numeric" : "nominal")
        << ")\n";
  }
  return 0;
}

Result<Technique> TechniqueFromName(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "perfxplain") return Technique::kPerfXplain;
  if (lower == "ruleofthumb") return Technique::kRuleOfThumb;
  if (lower == "simbutdiff") return Technique::kSimButDiff;
  return Status::InvalidArgument("unknown technique '" + name +
                                 "' (perfxplain|ruleofthumb|simbutdiff)");
}

/// Collects the explain command's query texts: every --query value plus
/// every non-empty, non-comment line of every --query-file, in
/// command-line order.
Result<std::vector<std::string>> CollectQueryTexts(const ParsedArgs& args) {
  std::vector<std::string> texts;
  for (const auto& [name, value] : args.ordered) {
    if (name == "query") {
      texts.push_back(value);
    } else if (name == "query-file") {
      std::ifstream file(value);
      if (!file) {
        return Status::InvalidArgument("cannot read --query-file '" + value +
                                       "'");
      }
      std::string line;
      while (std::getline(file, line)) {
        const std::string trimmed(Trim(line));
        if (trimmed.empty() || trimmed[0] == '#') continue;
        texts.push_back(trimmed);
      }
    }
  }
  if (texts.empty()) {
    return Status::InvalidArgument(
        "missing required option --query (or --query-file)");
  }
  return texts;
}

/// Prints one query's explanation, optional prose, metrics and timing.
void PrintResponse(std::ostream& out, const ParsedArgs& args,
                   const Query& bound, const ExplainResponse& response) {
  out << response.explanation.ToString() << "\n";
  if (args.HasFlag("prose")) {
    out << "\n" << RenderExplanationProse(bound, response.explanation)
        << "\n";
  }
  if (response.metrics.has_value()) {
    out << StrFormat(
        "\nrelevance %.3f  precision %.3f  generality %.3f\n",
        response.metrics->relevance, response.metrics->precision,
        response.metrics->generality);
  }
  out << StrFormat("time: explain %.1f ms%s%s  evaluate %.1f ms\n",
                   response.explain_ms,
                   response.batched ? " (amortized batch share)" : "",
                   response.result_cache_hit ? " (result cache hit)" : "",
                   response.evaluate_ms);
  out << StrFormat("generation: %llu\n",
                   static_cast<unsigned long long>(response.snapshot_id));
  if (response.tile_hits + response.tile_misses + response.tile_evictions >
      0) {
    out << StrFormat("tiles: %llu hits  %llu misses  %llu evictions\n",
                     static_cast<unsigned long long>(response.tile_hits),
                     static_cast<unsigned long long>(response.tile_misses),
                     static_cast<unsigned long long>(response.tile_evictions));
  }
}

/// The --append-from flow: answer the queries on the starting snapshot,
/// stream the file's records through the serving delta log (one by one
/// when --rotate-rows arms the auto-rotation threshold, as one batch
/// otherwise), promote whatever is still pending, and answer the queries
/// again on the new generation. Each response prints the snapshot
/// generation that served it.
int RunExplainAppend(const ParsedArgs& args, std::ostream& out,
                     ExecutionLog log, const EngineOptions& options,
                     const ExplainRequest& request,
                     const std::vector<std::string>& query_texts) {
  auto rotate_rows = IntOption(args, "rotate-rows", 0);
  if (!rotate_rows.ok() || *rotate_rows < 0) {
    return Fail(out, Status::InvalidArgument("--rotate-rows must be >= 0"));
  }
  auto delay_ms = IntOption(args, "append-delay-ms", 0);
  if (!delay_ms.ok() || *delay_ms < 0) {
    return Fail(out,
                Status::InvalidArgument("--append-delay-ms must be >= 0"));
  }
  auto durability = DurabilityFromArgs(args);
  if (!durability.ok()) return Fail(out, durability.status());
  auto delta = ExecutionLog::LoadCsv(args.options.at("append-from"));
  if (!delta.ok()) return Fail(out, delta.status());

  RotationPolicy policy;
  policy.max_delta_rows = static_cast<std::size_t>(*rotate_rows);
  std::unique_ptr<LiveEngine> owned;
  if (!durability->wal_dir.empty() || !durability->checkpoint_dir.empty()) {
    // A durable engine always comes through Recover: on fresh directories
    // it just starts journaling, after a crash it picks up where the
    // journal left off (so re-running the same command is safe).
    auto recovered =
        LiveEngine::Recover(std::move(log), *durability, options, policy);
    if (!recovered.ok()) return Fail(out, recovered.status());
    owned = std::move(*recovered);
  } else {
    owned = std::make_unique<LiveEngine>(std::move(log), options, policy);
  }
  LiveEngine& live = *owned;

  const auto explain_all = [&](const char* phase) {
    int exit_code = 0;
    for (std::size_t q = 0; q < query_texts.size(); ++q) {
      out << "== " << phase << " query " << (q + 1) << " ==\n";
      auto prepared = live.PrepareText(query_texts[q]);
      if (!prepared.ok()) {
        out << "error: " << prepared.status().ToString() << "\n\n";
        exit_code = CombineExit(exit_code,
                                ExitCodeForStatus(prepared.status()));
        continue;
      }
      auto response = live.Explain(*prepared, request);
      if (!response.ok()) {
        out << "error: " << response.status().ToString() << "\n\n";
        exit_code = CombineExit(exit_code,
                                ExitCodeForStatus(response.status()));
        continue;
      }
      PrintResponse(out, args, prepared->bound(), *response);
      out << "\n";
    }
    return exit_code;
  };

  int exit_code = explain_all("pre-append");

  std::vector<ExecutionRecord> records = delta->records();
  const std::size_t total_appended = records.size();
  // One-by-one appends when the auto-rotation threshold is armed or a
  // crash-injection harness is pacing/observing the stream; one batch
  // (one WAL commit) otherwise.
  const bool one_by_one = *rotate_rows > 0 || *delay_ms > 0 ||
                          args.HasFlag("print-acks");
  if (one_by_one) {
    for (ExecutionRecord& record : records) {
      const std::string id = record.id;
      if (Status status = live.Append(std::move(record)); !status.ok()) {
        return Fail(out, status);
      }
      if (args.HasFlag("print-acks")) {
        // After Append returned OK the record is journaled and fsynced
        // (per --fsync): the ack line is the harness's durability oracle.
        out << "ack " << id << "\n" << std::flush;
      }
      if (*delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(*delay_ms));
      }
    }
  } else if (Status status = live.AppendBatch(std::move(records));
             !status.ok()) {
    return Fail(out, status);
  }
  out << "appended " << total_appended << " records ("
      << live.rotations() << " auto-rotations, " << live.pending_rows()
      << " still pending)\n";

  auto stats = live.Rotate();
  if (!stats.ok()) return Fail(out, stats.status());
  if (stats->promoted_rows > 0) {
    out << StrFormat(
        "promoted %llu rows: generation %llu -> %llu  (%llu total rows, "
        "pair plane %s, %llu cache entries invalidated, %.1f ms)\n",
        static_cast<unsigned long long>(stats->promoted_rows),
        static_cast<unsigned long long>(stats->old_snapshot_id),
        static_cast<unsigned long long>(stats->new_snapshot_id),
        static_cast<unsigned long long>(stats->total_rows),
        stats->pair_plane_seeded ? "seeded" : "cold",
        static_cast<unsigned long long>(stats->invalidated_cache_entries),
        stats->promote_ms);
  } else {
    out << "nothing pending to promote (generation "
        << stats->new_snapshot_id << ")\n";
  }
  out << "\n";

  exit_code = CombineExit(exit_code, explain_all("post-append"));
  return exit_code;
}

int RunExplain(const ParsedArgs& args, std::ostream& out) {
  auto path = RequireOption(args, "log");
  if (!path.ok()) return Fail(out, path.status());
  auto query_texts = CollectQueryTexts(args);
  if (!query_texts.ok()) return Fail(out, query_texts.status());
  auto width = IntOption(args, "width", 3);
  if (!width.ok() || *width < 1) {
    return Fail(out, Status::InvalidArgument("--width must be >= 1"));
  }
  Technique technique = Technique::kPerfXplain;
  if (args.options.count("technique") > 0) {
    auto parsed = TechniqueFromName(args.options.at("technique"));
    if (!parsed.ok()) return Fail(out, parsed.status());
    technique = parsed.value();
  }
  auto threads = IntOption(args, "threads", 0);
  if (!threads.ok()) return Fail(out, threads.status());
  auto deadline_ms = IntOption(args, "deadline-ms", 0);
  if (!deadline_ms.ok() || *deadline_ms < 0) {
    return Fail(out, Status::InvalidArgument("--deadline-ms must be >= 0"));
  }
  auto max_pairs = IntOption(args, "max-candidate-pairs", 0);
  if (!max_pairs.ok() || *max_pairs < 0) {
    return Fail(out,
                Status::InvalidArgument("--max-candidate-pairs must be >= 0"));
  }
  auto max_store = IntOption(args, "max-pair-store-bytes", 0);
  if (!max_store.ok() || *max_store < 0) {
    return Fail(out, Status::InvalidArgument(
                         "--max-pair-store-bytes must be >= 0"));
  }
  auto max_cells = IntOption(args, "max-training-cells", 0);
  if (!max_cells.ok() || *max_cells < 0) {
    return Fail(out,
                Status::InvalidArgument("--max-training-cells must be >= 0"));
  }
  auto pair_budget = IntOption(args, "pair-code-budget-bytes",
                               static_cast<long long>(
                                   SimButDiffOptions{}.pair_code_budget_bytes));
  if (!pair_budget.ok() || *pair_budget < 0) {
    return Fail(out, Status::InvalidArgument(
                         "--pair-code-budget-bytes must be >= 0"));
  }
  auto cache_bytes = IntOption(args, "result-cache-bytes", 0);
  if (!cache_bytes.ok() || *cache_bytes < 0) {
    return Fail(out, Status::InvalidArgument(
                         "--result-cache-bytes must be >= 0"));
  }

  auto log = ExecutionLog::LoadCsv(*path);
  if (!log.ok()) return Fail(out, log.status());

  EngineOptions options;
  options.explainer.width = static_cast<std::size_t>(*width);
  options.explainer.threads = static_cast<int>(*threads);
  options.sim_but_diff.threads = static_cast<int>(*threads);
  options.rule_of_thumb.relief.threads = static_cast<int>(*threads);
  options.limits.max_candidate_pairs = static_cast<std::size_t>(*max_pairs);
  options.limits.max_pair_store_bytes = static_cast<std::size_t>(*max_store);
  options.limits.max_training_cells = static_cast<std::size_t>(*max_cells);
  options.sim_but_diff.pair_code_budget_bytes =
      static_cast<std::size_t>(*pair_budget);
  options.result_cache_bytes = static_cast<std::size_t>(*cache_bytes);

  ExplainRequest request;
  request.technique = technique;
  request.width = static_cast<std::size_t>(*width);
  request.auto_despite =
      args.HasFlag("auto-despite") && technique == Technique::kPerfXplain;
  request.evaluate = true;
  request.deadline_ms = static_cast<std::int64_t>(*deadline_ms);

  if (args.options.count("append-from") > 0) {
    return RunExplainAppend(args, out, std::move(log).value(), options,
                            request, *query_texts);
  }
  for (const char* durable_only : {"wal-dir", "checkpoint-dir", "fsync"}) {
    if (args.options.count(durable_only) > 0) {
      return Fail(out, Status::InvalidArgument(
                           std::string("--") + durable_only +
                           " journals the append stream and needs "
                           "--append-from"));
    }
  }

  const Engine engine(std::move(log).value(), options);

  std::vector<PreparedQuery> prepared;
  prepared.reserve(query_texts->size());
  for (std::size_t q = 0; q < query_texts->size(); ++q) {
    auto one = engine.PrepareText((*query_texts)[q]);
    if (!one.ok()) {
      if (query_texts->size() > 1) out << "query " << (q + 1) << ": ";
      return Fail(out, one.status());
    }
    prepared.push_back(std::move(one).value());
  }

  if (prepared.size() == 1) {
    auto response = engine.Explain(prepared[0], request);
    if (!response.ok()) return Fail(out, response.status());
    PrintResponse(out, args, prepared[0].bound(), *response);
    return 0;
  }

  std::vector<Engine::BatchItem> items;
  items.reserve(prepared.size());
  for (const PreparedQuery& one : prepared) {
    items.push_back(Engine::BatchItem{&one, request});
  }
  const std::vector<Result<ExplainResponse>> responses =
      engine.ExplainBatch(items);
  int exit_code = 0;
  for (std::size_t q = 0; q < responses.size(); ++q) {
    const Query& bound = prepared[q].bound();
    out << "== query " << (q + 1) << " (" << bound.first_id << " vs "
        << bound.second_id << ") ==\n";
    if (!responses[q].ok()) {
      out << "error: " << responses[q].status().ToString() << "\n\n";
      exit_code = CombineExit(exit_code,
                              ExitCodeForStatus(responses[q].status()));
      continue;
    }
    PrintResponse(out, args, bound, *responses[q]);
    out << "\n";
  }
  return exit_code;
}

int RunRecover(const ParsedArgs& args, std::ostream& out) {
  auto path = RequireOption(args, "log");
  if (!path.ok()) return Fail(out, path.status());
  auto durability = DurabilityFromArgs(args);
  if (!durability.ok()) return Fail(out, durability.status());
  if (durability->wal_dir.empty() && durability->checkpoint_dir.empty()) {
    return Fail(out, Status::InvalidArgument(
                         "recover needs --wal-dir and/or --checkpoint-dir"));
  }
  auto width = IntOption(args, "width", 3);
  if (!width.ok() || *width < 1) {
    return Fail(out, Status::InvalidArgument("--width must be >= 1"));
  }
  auto threads = IntOption(args, "threads", 0);
  if (!threads.ok()) return Fail(out, threads.status());
  Technique technique = Technique::kPerfXplain;
  if (args.options.count("technique") > 0) {
    auto parsed = TechniqueFromName(args.options.at("technique"));
    if (!parsed.ok()) return Fail(out, parsed.status());
    technique = parsed.value();
  }

  auto log = ExecutionLog::LoadCsv(*path);
  if (!log.ok()) return Fail(out, log.status());

  EngineOptions options;
  options.explainer.width = static_cast<std::size_t>(*width);
  options.explainer.threads = static_cast<int>(*threads);
  options.sim_but_diff.threads = static_cast<int>(*threads);
  options.rule_of_thumb.relief.threads = static_cast<int>(*threads);

  RecoveryStats stats;
  auto recovered = LiveEngine::Recover(std::move(log).value(), *durability,
                                       options, RotationPolicy{}, &stats);
  if (!recovered.ok()) return Fail(out, recovered.status());
  LiveEngine& live = **recovered;

  if (stats.checkpoint_loaded) {
    out << "checkpoint: generation " << stats.checkpoint_generation << " ("
        << stats.checkpoint_rows << " rows)\n";
  } else {
    out << "checkpoint: none (seeded from " << *path << ")\n";
  }
  out << "wal: replayed " << stats.replayed_batches << " batches ("
      << stats.replayed_records << " records), rejected "
      << stats.rejected_batches << ", discarded uncommitted "
      << stats.discarded_records << "\n";
  if (stats.wal_tail_truncated) {
    out << "wal: torn tail truncated at " << stats.truncated_file
        << " offset " << stats.truncate_offset << "\n";
  }
  const std::shared_ptr<const Engine> engine = live.engine();
  out << "serving " << engine->snapshot()->columns().rows()
      << " rows at generation "
      << engine->snapshot()->id() << "\n";

  if (auto it = args.options.find("dump-log"); it != args.options.end()) {
    if (Status saved = engine->log().SaveCsv(it->second); !saved.ok()) {
      return Fail(out, saved);
    }
    out << "wrote " << it->second << "\n";
  }

  std::vector<std::string> query_texts;
  for (const auto& [name, value] : args.ordered) {
    if (name != "query" && name != "query-file") continue;
    auto collected = CollectQueryTexts(args);
    if (!collected.ok()) return Fail(out, collected.status());
    query_texts = std::move(collected).value();
    break;
  }

  ExplainRequest request;
  request.technique = technique;
  request.width = static_cast<std::size_t>(*width);
  request.evaluate = true;

  int exit_code = 0;
  for (std::size_t q = 0; q < query_texts.size(); ++q) {
    out << "== recovered query " << (q + 1) << " ==\n";
    auto prepared = live.PrepareText(query_texts[q]);
    if (!prepared.ok()) {
      out << "error: " << prepared.status().ToString() << "\n\n";
      exit_code = CombineExit(exit_code,
                              ExitCodeForStatus(prepared.status()));
      continue;
    }
    auto response = live.Explain(*prepared, request);
    if (!response.ok()) {
      out << "error: " << response.status().ToString() << "\n\n";
      exit_code = CombineExit(exit_code,
                              ExitCodeForStatus(response.status()));
      continue;
    }
    PrintResponse(out, args, prepared->bound(), *response);
    out << "\n";
  }
  return exit_code;
}

int RunDespite(const ParsedArgs& args, std::ostream& out) {
  auto path = RequireOption(args, "log");
  if (!path.ok()) return Fail(out, path.status());
  auto query_text = RequireOption(args, "query");
  if (!query_text.ok()) return Fail(out, query_text.status());
  auto width = IntOption(args, "width", 3);
  if (!width.ok()) return Fail(out, width.status());

  auto log = ExecutionLog::LoadCsv(*path);
  if (!log.ok()) return Fail(out, log.status());

  auto threads = IntOption(args, "threads", 0);
  if (!threads.ok()) return Fail(out, threads.status());

  EngineOptions options;
  options.explainer.despite_width = static_cast<std::size_t>(*width);
  options.explainer.threads = static_cast<int>(*threads);
  const Engine engine(std::move(log).value(), options);
  auto prepared = engine.PrepareText(*query_text);
  if (!prepared.ok()) return Fail(out, prepared.status());
  auto despite = engine.GenerateDespite(*prepared);
  if (!despite.ok()) return Fail(out, despite.status());
  out << "DESPITE " << despite->ToString() << "\n";
  return 0;
}

}  // namespace

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kDeadlineExceeded:
      return 3;
    case StatusCode::kCancelled:
      return 4;
    case StatusCode::kResourceExhausted:
      return 5;
    default:
      return 1;
  }
}

int Run(const std::vector<std::string>& args, std::ostream& out) {
  auto parsed = ParseArgs(args);
  if (!parsed.ok()) {
    out << "error: " << parsed.status().ToString() << "\n" << kUsage;
    return 1;
  }
  const std::string& command = parsed->command;
  if (command == "help" || command == "--help") {
    out << kUsage;
    return 0;
  }
  if (command == "generate") return RunGenerate(*parsed, out);
  if (command == "ingest") return RunIngest(*parsed, out);
  if (command == "info") return RunInfo(*parsed, out);
  if (command == "explain") return RunExplain(*parsed, out);
  if (command == "recover") return RunRecover(*parsed, out);
  if (command == "despite") return RunDespite(*parsed, out);
  out << "error: unknown command '" << command << "'\n" << kUsage;
  return 1;
}

}  // namespace perfxplain::cli
