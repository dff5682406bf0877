#include "workloads.h"

#include <filesystem>

#include "common.h"
#include "common/logging.h"

namespace perfbench {

RunResult RunWorkload(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  if (options.workload == "explain-resident") return RunExplain(options, false);
  if (options.workload == "explain-spill") return RunExplain(options, true);
  PX_CHECK(options.workload == "ingest-live")
      << "unknown workload " << options.workload;
  return RunIngestLive(options);
}

}  // namespace perfbench
