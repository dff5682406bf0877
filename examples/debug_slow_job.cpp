// debug_slow_job: the paper's motivating scenario (§2.1).
//
// A user runs a MapReduce job on a large dataset, then re-runs it on a
// dataset half the size hoping for a much faster debug cycle — but both
// take the same time. Why? PerfXplain's answer in the paper: the block
// size is large, so neither dataset uses the full cluster capacity and the
// runtime is the time to process one block.
//
// This example reproduces that story end to end: it simulates a log with
// varied configurations, submits the two puzzling jobs, asks the PXQL
// query, and prints the explanation.

#include <cstdio>

#include "common/string_util.h"
#include "core/engine.h"
#include "log/catalog.h"
#include "simulator/trace_generator.h"

namespace px = perfxplain;

int main() {
  // A background log with varied block sizes, input sizes and cluster
  // sizes, so the explainer has evidence of how each knob matters.
  px::TraceOptions options;
  options.seed = 1234;
  // A calm cluster (little hardware heterogeneity or task noise) so the
  // block-size mechanism, not measurement noise, dominates the story.
  options.cluster.speed_sigma = 0.015;
  options.cluster.task_noise_sigma = 0.015;
  options.cluster.straggler_probability = 0.0;
  options.cluster.background_load_probability = 0.0;
  int id = 0;
  for (double block_mb : {64.0, 256.0, 1024.0}) {
    for (int instances : {2, 4, 8, 16}) {
      for (double input_gb : {1.3, 2.6}) {
        for (const char* script :
             {"simple-filter.pig", "simple-groupby.pig"}) {
          px::JobConfig config;
          config.job_id = px::StrFormat("job_%03d", id++);
          config.num_instances = instances;
          config.input_size_bytes = input_gb * 1024 * 1024 * 1024;
          config.block_size_bytes = block_mb * 1024 * 1024;
          config.pig_script = script;
          options.jobs.push_back(config);
        }
      }
    }
  }

  // The two jobs of the story: same script, same 8-instance cluster, large
  // 1 GB blocks; J_big processes 2.6 GB, J_small half of that. With
  // 16 map slots and only 2-3 blocks, both jobs finish in about the time of
  // one block.
  px::JobConfig big;
  big.job_id = "job_big";
  big.num_instances = 8;
  big.input_size_bytes = 2.6 * 1024 * 1024 * 1024;
  big.block_size_bytes = 1024.0 * 1024 * 1024;
  big.pig_script = "simple-filter.pig";
  px::JobConfig small = big;
  small.job_id = "job_small";
  small.input_size_bytes = 1.3 * 1024 * 1024 * 1024;
  options.jobs.push_back(big);
  options.jobs.push_back(small);

  px::Trace trace = px::GenerateTrace(options).value();

  // Show the puzzle.
  const auto& log = trace.job_log;
  const std::size_t f_duration =
      log.schema().IndexOf(px::feature_names::kDuration);
  const double d_big =
      log.at(log.Find("job_big").value()).values[f_duration].number();
  const double d_small =
      log.at(log.Find("job_small").value()).values[f_duration].number();
  std::printf("job_big   (2.6 GB): %6.0f s\n", d_big);
  std::printf("job_small (1.3 GB): %6.0f s   <- user expected ~half\n",
              d_small);

  px::Engine engine(trace.job_log);

  // "Despite having less input data, job_small had the same runtime as
  //  job_big. I expected it to be much faster." (Example 3 of the paper.)
  auto prepared = engine.PrepareText(
      "FOR J1, J2 WHERE J1.JobID = 'job_small' AND J2.JobID = 'job_big' "
      "DESPITE inputsize_compare = LT "
      "OBSERVED duration_compare = SIM "
      "EXPECTED duration_compare = LT");
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
  std::printf("\nrelevance %.3f  precision %.3f  generality %.3f\n",
              response->metrics->relevance, response->metrics->precision,
              response->metrics->generality);
  std::printf(
      "\nreading: with few blocks relative to cluster capacity, runtime is "
      "the per-block processing time, so shrinking the input does not "
      "help. Reduce the block size (or debug locally).\n");
  return 0;
}
