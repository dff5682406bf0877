#ifndef PERFXPLAIN_TOOLS_CLI_H_
#define PERFXPLAIN_TOOLS_CLI_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfxplain::cli {

/// Maps a failed Status to the process exit code, so scripts can tell a
/// budget problem from a bad query without parsing stderr:
///   0  OK
///   3  kDeadlineExceeded (the request ran past --deadline-ms)
///   4  kCancelled (cooperative cancellation)
///   5  kResourceExhausted (admission control rejected the work up front)
///   1  anything else (bad arguments, parse errors, I/O, corruption)
int ExitCodeForStatus(const Status& status);

/// Entry point of the perfxplain command-line tool, separated from main()
/// so tests can drive it. `args` excludes the program name. All output goes
/// to `out` (diagnostics included); the return value is the process exit
/// code (see ExitCodeForStatus).
///
/// Commands:
///   generate --out DIR [--seed N] [--jobs N]
///       Simulate a MapReduce trace (N jobs from the Table 2 grid; default
///       the full 540) and write DIR/job_log.csv and DIR/task_log.csv.
///   info --log FILE
///       Print the log's schema, record count and duration statistics.
///   explain --log FILE --query PXQL [--query PXQL ...]
///           [--query-file FILE ...] [--width N] [--technique T]
///           [--auto-despite] [--prose] [--threads N]
///       Generate an explanation per PXQL query (each must carry a
///       FOR ... WHERE clause naming its pair of interest). T is one of
///       perfxplain (default), ruleofthumb, simbutdiff. --query may repeat
///       and --query-file adds one query per non-empty, non-# line; with
///       more than one query the whole batch runs through
///       Engine::ExplainBatch (requests of one query shape share a
///       single pair scan) and per-query timing is printed. With
///       --append-from the records are streamed through the live serving
///       engine; --wal-dir/--checkpoint-dir/--fsync make that engine
///       durable (journal every accepted batch, checkpoint on rotation).
///   recover --log FILE [--wal-dir DIR] [--checkpoint-dir DIR]
///           [--query PXQL ...] [--dump-log FILE]
///       Crash recovery: load the newest checkpoint (FILE seeds a fresh
///       deployment), replay the WAL tail, fold it into a served
///       snapshot, report what was recovered, optionally dump the
///       recovered log and answer queries on it.
///   despite --log FILE --query PXQL [--width N]
///       Generate only a despite clause for an under-specified query.
///   help
///       Print usage.
int Run(const std::vector<std::string>& args, std::ostream& out);

}  // namespace perfxplain::cli

#endif  // PERFXPLAIN_TOOLS_CLI_H_
