#ifndef PERFXPLAIN_BENCH_HARNESS_H_
#define PERFXPLAIN_BENCH_HARNESS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "log/execution_log.h"
#include "pxql/query.h"
#include "simulator/trace_generator.h"

namespace perfxplain::bench {

/// Shared experimental protocol from §6.1 of the paper:
///  - collect a log by sweeping the Table 2 grid;
///  - split it 50/50 into a training and a test log, at random, per run;
///  - generate the explanation from the training log (which always contains
///    the pair of interest) and measure its precision/relevance/generality
///    over the test log;
///  - repeat 10 times and report mean and standard deviation.

struct HarnessOptions {
  std::uint64_t trace_seed = 42;
  std::uint64_t split_seed = 4242;
  int runs = 10;
  double train_fraction = 0.5;
  /// Max number of jobs whose tasks enter the task-level experiments. The
  /// columnar pair-enumeration fast path makes much larger task logs
  /// tractable than the original Value-based O(n^2) evaluation did (the
  /// seed capped this at 48).
  std::size_t task_jobs_limit = 128;
  /// Worker threads for the columnar enumeration (0 = hardware
  /// concurrency). Observation-free: results are identical for every
  /// value.
  int threads = 0;
};

/// Parses the shared experiment flags ("--threads N", "--task-jobs-limit
/// N", "--runs N") from a bench binary's argv, applies the thread count
/// process-wide, and returns the options. Unknown arguments are ignored so
/// binaries can keep their own flags.
HarnessOptions ParseHarnessArgs(int argc, char** argv,
                                HarnessOptions defaults = {});

/// The two PXQL queries of §6.2, without the FOR clause (ids are filled in
/// once the pair of interest is selected).
Query WhyLastTaskFasterQuery();
Query WhySlowerDespiteSameNumInstancesQuery();

/// The same queries with the despite clause stripped (§6.4).
Query StripDespite(const Query& query);

/// An experiment fixture: a full log, a query and a fixed pair of interest.
class Fixture {
 public:
  /// Builds the job-level fixture: full Table 2 trace, query 2, and a pair
  /// of interest matching the paper's story (same script and instances;
  /// the slower job reads much more data). `poi_finder_extra` optionally
  /// further constrains the pair-of-interest search.
  static Fixture JobLevel(const HarnessOptions& options,
                          const std::string& poi_finder_extra = "");

  /// Builds the task-level fixture: tasks of multi-wave jobs, query 1, and
  /// a pair of interest where the faster task ran in a later wave.
  static Fixture TaskLevel(const HarnessOptions& options);

  const ExecutionLog& full_log() const { return full_log_; }
  const Query& query() const { return query_; }
  const std::string& poi_first_id() const { return poi_first_id_; }
  const std::string& poi_second_id() const { return poi_second_id_; }

  /// Replaces the query (e.g., to strip its despite clause). Ids are kept.
  void SetQuery(Query query);

  /// One §6.1 run: split, make sure the pair of interest is in the training
  /// half, and hand both halves to `body`.
  struct SplitLogs {
    ExecutionLog train;
    ExecutionLog test;
  };
  SplitLogs Split(int run) const;

  /// Filters the training half to records matching `keep` (still ensuring
  /// the pair of interest is present) — used by the §6.5 different-job and
  /// §6.6 log-size experiments.
  SplitLogs SplitWith(
      int run, double train_fraction,
      const std::function<bool(const ExecutionRecord&)>& keep_train) const;

 private:
  HarnessOptions options_;
  ExecutionLog full_log_;
  Query query_;
  std::string poi_first_id_;
  std::string poi_second_id_;
};

/// Mean/stddev accumulator rendered as "0.84 +- 0.05".
struct Series {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  double mean() const;
  double stddev() const;
  std::string ToString() const;
};

/// What one RunOnce call did beyond producing metrics. Each run builds a
/// fresh Engine over a fresh training split, so a SimButDiff run that
/// engages the snapshot's PairCodeStore always pays the one-time build —
/// `pair_store_built` flags it so trajectory timings derived from RunOnce
/// are not silently polluted by build cost (`pair_store_hit` says whether
/// the run's scan actually ran on resident codes).
struct RunReport {
  bool pair_store_hit = false;
  bool pair_store_built = false;
  /// True when the run was answered from the engine's ResultCache
  /// without any scan (only with EngineOptions::result_cache_bytes set).
  bool result_cache_hit = false;
  /// Tile-pool traffic of a run on the buffer-pool middle path (zero on
  /// the resident-plane and streaming paths).
  std::uint64_t tile_hits = 0;
  std::uint64_t tile_misses = 0;
  std::uint64_t tile_evictions = 0;

  /// "tiles 12 hits / 4 misses / 1 evictions, result cache hit" — the
  /// human-readable tail bench binaries append to a row; empty when the
  /// run drove no tiles and hit no cache.
  std::string ToString() const;
};

/// Runs `technique` at `width` on the training log (through an Engine
/// built per run, as each run trains on a different split) and returns
/// the explanation's metrics over the test log, or nullopt when the
/// technique could not produce an explanation for this run. Width 0
/// evaluates the empty explanation. `report`, when non-null, receives the
/// run's RunReport.
std::optional<ExplanationMetrics> RunOnce(
    const Fixture& fixture, const Fixture::SplitLogs& logs,
    Technique technique, std::size_t width,
    const EngineOptions& options = {}, RunReport* report = nullptr);

/// "over N runs" with N taken from the parsed --runs count. Fig-bench
/// headers derive their description from these helpers instead of
/// hardcoding the default run count.
std::string OverRuns(const HarnessOptions& options);

/// "mean +- stddev over N runs" (the Series::ToString rendering).
std::string MeanStddevOverRuns(const HarnessOptions& options);

/// Pretty-printing helpers shared by the experiment binaries.
void PrintHeader(const std::string& title, const std::string& description);
void PrintRow(const std::vector<std::string>& cells, int cell_width = 22);

}  // namespace perfxplain::bench

#endif  // PERFXPLAIN_BENCH_HARNESS_H_
