// explore_log: generate the full Table 2 trace (540 jobs), save it as CSV,
// and print summary statistics — duration distributions per parameter,
// the RReliefF feature-importance ranking, and a sample explanation for the
// paper's WhySlowerDespiteSameNumInstances query.
//
// Usage: explore_log [output_directory]

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/engine.h"
#include "log/catalog.h"
#include "ml/relief.h"
#include "simulator/trace_generator.h"

namespace px = perfxplain;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  px::TraceOptions options;
  options.seed = 42;
  std::printf("generating the Table 2 grid (540 jobs)...\n");
  px::Trace trace = px::GenerateTrace(options).value();
  std::printf("jobs: %zu   tasks: %zu\n", trace.job_log.size(),
              trace.task_log.size());
  std::printf("excite stats: %.1f bytes/record, %.1f%% URLs, %.2f%% "
              "distinct users\n",
              trace.stats.avg_record_bytes, 100 * trace.stats.url_fraction,
              100 * trace.stats.distinct_user_ratio);

  const std::string job_csv = out_dir + "/job_log.csv";
  const std::string task_csv = out_dir + "/task_log.csv";
  if (!trace.job_log.SaveCsv(job_csv).ok() ||
      !trace.task_log.SaveCsv(task_csv).ok()) {
    std::fprintf(stderr, "failed to save CSVs\n");
    return 1;
  }
  std::printf("saved %s and %s\n", job_csv.c_str(), task_csv.c_str());

  // Duration distribution sliced by the main parameters.
  const px::Schema& schema = trace.job_log.schema();
  const std::size_t f_duration =
      schema.IndexOf(px::feature_names::kDuration);
  const std::size_t f_instances =
      schema.IndexOf(px::feature_names::kNumInstances);
  const std::size_t f_input = schema.IndexOf(px::feature_names::kInputSize);
  const std::size_t f_block = schema.IndexOf(px::feature_names::kBlockSize);
  std::map<std::pair<double, double>, px::RunningStat> by_inst_input;
  std::map<double, px::RunningStat> by_block;
  for (const auto& record : trace.job_log.records()) {
    const double duration = record.values[f_duration].number();
    by_inst_input[{record.values[f_instances].number(),
                   record.values[f_input].number() / (1 << 30)}]
        .Add(duration);
    by_block[record.values[f_block].number() / (1 << 20)].Add(duration);
  }
  std::printf("\nmean job duration (s) by instances x input GB:\n");
  std::printf("%12s %10s %10s\n", "instances", "1.3GB", "2.6GB");
  for (int instances : {1, 2, 4, 8, 16}) {
    std::printf("%12d %10.0f %10.0f\n", instances,
                by_inst_input[{static_cast<double>(instances), 1.3}].mean(),
                by_inst_input[{static_cast<double>(instances), 2.6}].mean());
  }
  std::printf("\nmean job duration (s) by block size MB:\n");
  for (auto& [mb, stat] : by_block) {
    std::printf("%8.0fMB %10.0f\n", mb, stat.mean());
  }

  // RReliefF ranking of job features for duration.
  px::Rng rng(99);
  const auto ranking = px::RankFeaturesByImportance(
      px::ColumnarLog(trace.job_log), f_duration, px::ReliefOptions(), rng);
  std::printf("\ntop-10 features by RReliefF importance for duration:\n");
  for (std::size_t i = 0; i < 10 && i < ranking.size(); ++i) {
    std::printf("  %2zu. %s\n", i + 1, schema.at(ranking[i]).name.c_str());
  }

  // A sample explanation for the paper's second evaluation query, through
  // the engine's prepare-once/explain-many API.
  const px::ExecutionLog& log = trace.job_log;
  px::Engine engine(log);
  auto query = px::ParseQuery(
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM");
  if (!query.ok()) return 1;
  if (!query->Bind(engine.pair_schema()).ok()) return 1;
  auto poi = engine.FindPairOfInterest(*query, /*skip=*/100);
  if (!poi.ok()) return 1;
  query->first_id = log.at(poi->first).id;
  query->second_id = log.at(poi->second).id;
  std::printf("\nquery:\n%s\n", query->ToString().c_str());
  auto prepared = engine.Prepare(*query);
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
  std::printf("relevance %.3f  precision %.3f  generality %.3f\n",
              response->metrics->relevance, response->metrics->precision,
              response->metrics->generality);
  return 0;
}
