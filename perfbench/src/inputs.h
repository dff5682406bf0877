#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "log/execution_log.h"

namespace perfbench {

/// One analyst question: a complete PXQL text (FOR clause included) and
/// the technique asked to answer it.
struct Question {
  std::string pxql;
  perfxplain::Technique technique = perfxplain::Technique::kPerfXplain;
  /// The despite clause carries a base nominal atom, so selection pruning
  /// shrinks the pair scan.
  bool selective = false;
  /// Explain workloads: Canonical() of the explanation a cold engine over
  /// the same rows gave with `technique`, at kColdThreads enumeration
  /// threads.
  std::string answer;
};

/// Inputs of a read-only explain workload: the rows handed to the engine,
/// its pair-code budget, and the fixed list of distinct questions the
/// client cycles. Every question was answered once with its technique, on
/// a cold engine over the same rows and budget at kColdThreads, before it
/// was kept; Question::answer holds that answer.
struct ExplainInputs {
  perfxplain::ExecutionLog log;
  std::size_t pair_code_budget_bytes = 0;
  std::vector<Question> questions;
};

/// explain-resident: the task-level log of map tasks from multi-wave jobs
/// of the Table-2 trace simulated with `seed` (~1,890 rows), and up to
/// `count` distinct "why was the last task faster" questions (§6.2) whose
/// pairs of interest satisfy Definition 1, alternating PerfXplain and
/// SimButDiff.
ExplainInputs MakeResidentInputs(std::uint64_t seed, std::size_t count);

/// explain-spill: the job-level log of the Table-2 grid swept five times
/// (2,700 jobs, ids offset through MakeTable2Grid(start_id)), a pair-code
/// budget of 1/8 of the plane, and `count` distinct "slower despite the
/// same instances" questions (§6.2), alternating PerfXplain and
/// SimButDiff; one question in four replaces pigscript_isSame = T by the
/// base nominal atom pigscript = <script>.
ExplainInputs MakeSpillInputs(std::uint64_t seed, std::size_t count);

/// One simulated job as the cluster would leave it: Hadoop history text
/// and Ganglia dump text.
struct RenderedJob {
  std::string history;
  std::string ganglia;
  std::size_t task_records = 0;
};

/// ingest-live: a seed task log of whole jobs (at least `seed_rows` rows)
/// and the following jobs of the same seed-shuffled Table-2 grid, rendered
/// to text, until they carry `growth` times the seed rows in task records
/// and the last job leaves records staged: appended one job per batch
/// under a rotation every `rotate_rows` staged records, the stream ends
/// with an unrotated tail. Questions are "why was the last task faster"
/// pairs among the seed rows. The query client may ask any of them with
/// any technique, so each was answered by PerfXplain, SimButDiff and
/// RuleOfThumb on the seed rows, and by RuleOfThumb on the rows of every
/// later generation (its ranking is per snapshot). SimButDiff is checked
/// on the seed rows only: rows are only added, and whether a pair is a
/// training pair similar to the pair of interest depends on its two rows
/// alone, so later generations have every training pair the seed rows had.
struct IngestInputs {
  perfxplain::ExecutionLog seed_log;
  std::vector<RenderedJob> jobs;
  std::vector<Question> questions;
  std::size_t ingest_records = 0;
};
IngestInputs MakeIngestInputs(std::uint64_t seed, std::size_t seed_rows,
                              double growth, std::size_t rotate_rows,
                              std::size_t question_count);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
