// Quickstart: simulate a small MapReduce job log, ask the PerfXplain
// engine why one job was slower than another despite running on the same
// number of instances, and print the generated explanation with its
// quality metrics.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target example_quickstart
//   ./build/example_quickstart

#include <cstdio>

#include "common/string_util.h"
#include "core/engine.h"
#include "log/catalog.h"
#include "simulator/trace_generator.h"

namespace px = perfxplain;

int main() {
  // 1. Generate a log of past executions. In a real deployment this log
  //    comes from Hadoop log files + Ganglia; here the bundled simulator
  //    produces it. We use a slice of the paper's Table 2 grid: both Pig
  //    scripts, three cluster sizes, two input sizes.
  px::TraceOptions trace_options;
  trace_options.seed = 7;
  for (int instances : {2, 4, 8}) {
    for (double input_gb : {1.3, 2.6}) {
      for (double block_mb : {64.0, 256.0}) {
        for (const char* script :
             {"simple-filter.pig", "simple-groupby.pig"}) {
          px::JobConfig config;
          config.job_id = px::StrFormat(
              "job_%03zu", trace_options.jobs.size());
          config.num_instances = instances;
          config.input_size_bytes = input_gb * 1024 * 1024 * 1024;
          config.block_size_bytes = block_mb * 1024 * 1024;
          config.pig_script = script;
          trace_options.jobs.push_back(config);
        }
      }
    }
  }
  px::Trace trace = px::GenerateTrace(trace_options).value();
  std::printf("simulated %zu jobs (%zu tasks)\n", trace.job_log.size(),
              trace.task_log.size());

  // 2. Hand the job log to the engine. The Engine holds an immutable
  //    LogSnapshot (the log's dictionary-encoded columns) that any number
  //    of concurrent Explain calls share.
  const px::ExecutionLog& log = trace.job_log;
  px::Engine engine(log);

  // 3. Express the performance question in PXQL. We first locate a pair of
  //    interest that matches the question: J1 much slower than J2 even
  //    though both ran the same script on the same number of instances.
  auto query_or = px::ParseQuery(
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT "
      "EXPECTED duration_compare = SIM");
  if (!query_or.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query_or.status().ToString().c_str());
    return 1;
  }
  px::Query query = std::move(query_or).value();
  if (!query.Bind(engine.pair_schema()).ok()) return 1;
  auto poi = engine.FindPairOfInterest(query);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;
  std::printf("\nPXQL query:\n%s\n", query.ToString().c_str());

  // 4. Prepare the query once (parse/bind/compile/resolve), then run it.
  //    The PreparedQuery is reusable across calls and threads; asking for
  //    evaluation scores the explanation against the log in the same
  //    request (Definitions 4-6).
  auto prepared = engine.Prepare(query);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
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

  // 5. The response carries the metrics and the measured latency.
  std::printf(
      "\nrelevance  %.3f\nprecision  %.3f\ngenerality %.3f\n",
      response->metrics->relevance, response->metrics->precision,
      response->metrics->generality);
  std::printf("\n(explain %.1f ms, evaluate %.1f ms)\n",
              response->explain_ms, response->evaluate_ms);
  return 0;
}
