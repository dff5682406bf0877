// reducer_skew: a question beyond the paper's two case studies, exercising
// the diff features of Table 1 and the simulator's key-skew extension.
//
// simple-groupby.pig groups search queries by user. When a few users are
// extremely active (hot keys), one reduce task receives far more shuffle
// data than its siblings and the whole job waits for it. A user staring at
// the task list sees one slow reducer and asks: why was this task so much
// slower than another reducer of the same job?

#include <cstdio>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/formatter.h"
#include "log/catalog.h"
#include "simulator/trace_generator.h"

namespace px = perfxplain;

int main() {
  // Ten groupby jobs with strong key skew, plus filter jobs as background.
  px::TraceOptions options;
  options.seed = 99;
  options.costs.key_skew_lognormal_sigma = 0.9;
  for (int j = 0; j < 16; ++j) {
    px::JobConfig config;
    config.job_id = px::StrFormat("job_%03d", j);
    config.num_instances = 4;
    config.reduce_tasks_factor = 2.0;
    config.pig_script =
        j % 2 == 0 ? "simple-groupby.pig" : "simple-filter.pig";
    options.jobs.push_back(config);
  }
  px::Trace trace = px::GenerateTrace(options).value();

  // Work on reduce tasks only.
  const px::Schema& schema = trace.task_log.schema();
  const std::size_t f_type = schema.IndexOf(px::feature_names::kTaskType);
  px::ExecutionLog reducers = trace.task_log.Filter(
      [&](const px::ExecutionRecord& record) {
        return record.values[f_type].nominal() == "reduce";
      });
  std::printf("reduce-task log: %zu tasks\n", reducers.size());

  px::Engine engine(reducers);

  // "Despite belonging to the same job, reducer T1 was much slower than
  //  T2. I expected all reducers of a job to take about as long."
  auto query_or = px::ParseQuery(
      "DESPITE jobID_isSame = T "
      "OBSERVED duration_compare = GT "
      "EXPECTED duration_compare = SIM");
  if (!query_or.ok()) return 1;
  px::Query query = std::move(query_or).value();
  if (!query.Bind(engine.pair_schema()).ok()) return 1;

  // Pick a pair where the slow reducer actually shuffled more data (the
  // finder constraint mirrors what the user sees in the task list).
  px::Query finder = query;
  finder.despite = finder.despite.And(
      px::ParsePredicate("reduce_input_bytes_compare = GT AND "
                         "pigscript = simple-groupby.pig")
          .value());
  auto poi = engine.FindPairOfInterest(finder);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  query.first_id = reducers.at(poi->first).id;
  query.second_id = reducers.at(poi->second).id;
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
  std::printf(
      "\nin English:\n%s\n",
      px::RenderExplanationProse(query, response->explanation).c_str());
  std::printf("\nrelevance %.3f  precision %.3f  generality %.3f\n",
              response->metrics->relevance, response->metrics->precision,
              response->metrics->generality);
  return 0;
}
