#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// The workloads, by the names BENCHMARK.json and later changes use.
inline constexpr const char* kWorkloads[] = {"explain-resident",
                                             "explain-spill", "ingest-live"};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase. In a traced run the first half is
  /// measured untraced and the second half traced, for the overhead.
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's own files (journal and checkpoint
  /// directories, the span dump). Created if absent; the journal
  /// directories are removed again before the run returns.
  std::string work_dir = ".bench_build/work";
};

struct RunResult {
  /// Every output check passed and every guard held.
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Failed plus incorrect operations.
  std::uint64_t failed = 0;
  /// The metrics of the final result line: the end-to-end metrics every
  /// workload reports (untraced run) or every per-layer metric (traced).
  Json metrics;
  /// Everything else, printed on the line before: all end-to-end metrics
  /// this workload produces with sample counts, sizes, settings, machine.
  Json report;
  std::vector<std::string> errors;
};

/// Runs one workload. Aborts (PX_CHECK) only on a broken environment;
/// wrong answers and failed operations are counted in the result.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
