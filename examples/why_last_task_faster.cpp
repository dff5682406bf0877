// why_last_task_faster: the paper's first evaluation query (§6.2) at the
// task level. While collecting their experimental data the authors noticed
// that the last map task on an instance often runs faster than the earlier
// tasks on the same instance, even though every task processes one block.
// The reason: instances run two concurrent tasks; by the time the last task
// runs, its neighbor slot is often idle, so the system load is lighter.
//
// This example simulates a handful of multi-wave jobs, finds such a task
// pair, and asks PerfXplain to explain it from the task-level log.

#include <cstdio>

#include "common/string_util.h"
#include "core/engine.h"
#include "log/catalog.h"
#include "simulator/trace_generator.h"

namespace px = perfxplain;

int main() {
  // Jobs with several map waves: small blocks relative to cluster capacity.
  px::TraceOptions options;
  options.seed = 2024;
  for (int j = 0; j < 10; ++j) {
    px::JobConfig config;
    config.job_id = px::StrFormat("job_%03d", j);
    config.num_instances = 4;
    config.input_size_bytes = 1.3 * 1024 * 1024 * 1024;
    config.block_size_bytes = 64.0 * 1024 * 1024;  // 21 blocks -> 3 waves
    config.pig_script =
        j % 2 == 0 ? "simple-filter.pig" : "simple-groupby.pig";
    options.jobs.push_back(config);
  }
  px::Trace trace = px::GenerateTrace(options).value();
  std::printf("task log: %zu tasks from %zu jobs\n", trace.task_log.size(),
              trace.job_log.size());

  const px::ExecutionLog& log = trace.task_log;
  px::Engine engine(log);

  // Query 1 of the paper's evaluation: despite being in the same job, on
  // the same host, processing a similar amount of data, T1 (the last task)
  // was faster than T2 (an earlier task).
  auto query_or = px::ParseQuery(
      "DESPITE jobID_isSame = T AND inputsize_compare = SIM AND "
      "hostname_isSame = T "
      "OBSERVED duration_compare = LT "
      "EXPECTED duration_compare = SIM");
  if (!query_or.ok()) return 1;
  px::Query query = std::move(query_or).value();
  if (!query.Bind(engine.pair_schema()).ok()) return 1;

  // Pick a pair of interest matching the paper's anecdote: T1 from a later
  // scheduling wave than T2 (the finder query adds that constraint; the
  // actual PXQL query does not carry it).
  px::Query finder = query;
  finder.despite = finder.despite.And(
      px::ParsePredicate("wave_index_compare = GT").value());
  auto poi = engine.FindPairOfInterest(finder);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;

  const auto& schema = log.schema();
  const std::size_t f_duration =
      schema.IndexOf(px::feature_names::kDuration);
  const std::size_t f_wave = schema.IndexOf("wave_index");
  std::printf(
      "\npair of interest:\n  %s  (wave %.0f, %.1f s)\n  %s  (wave %.0f, "
      "%.1f s)\n",
      query.first_id.c_str(),
      log.at(poi->first).values[f_wave].number(),
      log.at(poi->first).values[f_duration].number(),
      query.second_id.c_str(),
      log.at(poi->second).values[f_wave].number(),
      log.at(poi->second).values[f_duration].number());
  std::printf("\nPXQL query:\n%s\n", query.ToString().c_str());

  auto prepared = engine.Prepare(query);
  if (!prepared.ok()) return 1;
  px::ExplainRequest request;
  request.evaluate = true;
  auto response = engine.Explain(*prepared, request);
  if (!response.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("\nexplanation:\n%s\n",
              response->explanation.ToString().c_str());
  std::printf("\nrelevance %.3f  precision %.3f  generality %.3f\n",
              response->metrics->relevance, response->metrics->precision,
              response->metrics->generality);
  std::printf(
      "\nreading: the slower task ran while its instance was busier "
      "(higher CPU/load/process counts), i.e., it shared the machine with "
      "another concurrent task, while the last task ran alone.\n");
  return 0;
}
