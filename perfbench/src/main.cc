// The end-to-end benchmark's entry point (normally started by run.py):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints one report line (every end-to-end metric the workload produces,
// with units and sample counts, sizes, settings, machine and build) and,
// as the last line, {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pair_enumeration.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explain-resident|explain-spill|ingest-live --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseUnsigned(value, number)) {
      options.seed = number;
    } else if (arg == "--seconds" && ParseUnsigned(value, number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace" && ParseUnsigned(value, number) &&
               number <= 1) {
      options.trace = number == 1;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  bool known = false;
  for (const char* name : perfbench::kWorkloads) {
    known = known || options.workload == name;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!perfbench::IsReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a non-Release build (%s)\n",
                 perfbench::MachineAndBuild().ToString().c_str());
    return 3;
  }
  // No thread count resolves to "hardware concurrency" anywhere.
  perfxplain::SetDefaultEnumerationThreads(1);
  // A fixed mmap threshold turns off glibc's adaptive one, which moves
  // large buffers between mmap and the heap depending on what was freed
  // before and made peak RSS differ by 20% between runs of one seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  perfbench::RunResult result = perfbench::RunWorkload(options);

  perfbench::Json report;
  report.Str("workload", options.workload)
      .Int("seed", static_cast<std::int64_t>(options.seed))
      .Num("seconds", options.seconds)
      .Bool("trace", options.trace)
      .Obj("machine", perfbench::MachineAndBuild())
      .Obj("metrics", result.report)
      .StrList("errors", result.errors);
  std::printf("%s\n", report.ToString().c_str());
  perfbench::Json last;
  last.Bool("correct", result.correct)
      .Int("attempted", static_cast<std::int64_t>(result.attempted))
      .Int("failed", static_cast<std::int64_t>(result.failed))
      .Obj("metrics", result.metrics);
  std::printf("%s\n", last.ToString().c_str());
  return 0;
}
