#include "harness.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "common/stats.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "log/catalog.h"
#include "pxql/parser.h"

namespace perfxplain::bench {

HarnessOptions ParseHarnessArgs(int argc, char** argv,
                                HarnessOptions defaults) {
  HarnessOptions options = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](long long fallback) -> long long {
      if (i + 1 >= argc) return fallback;
      auto parsed = ParseInt(argv[i + 1]);
      if (!parsed.ok()) return fallback;
      ++i;
      return parsed.value();
    };
    if (arg == "--threads") {
      options.threads = static_cast<int>(next_int(options.threads));
    } else if (arg == "--task-jobs-limit") {
      options.task_jobs_limit = static_cast<std::size_t>(
          next_int(static_cast<long long>(options.task_jobs_limit)));
    } else if (arg == "--runs") {
      options.runs = static_cast<int>(next_int(options.runs));
    }
  }
  SetDefaultEnumerationThreads(options.threads);
  return options;
}

Query WhyLastTaskFasterQuery() {
  auto query = ParseQuery(
      "DESPITE jobID_isSame = T AND inputsize_compare = SIM AND "
      "hostname_isSame = T "
      "OBSERVED duration_compare = LT "
      "EXPECTED duration_compare = SIM");
  PX_CHECK(query.ok()) << query.status().ToString();
  return std::move(query).value();
}

Query WhySlowerDespiteSameNumInstancesQuery() {
  auto query = ParseQuery(
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT "
      "EXPECTED duration_compare = SIM");
  PX_CHECK(query.ok()) << query.status().ToString();
  return std::move(query).value();
}

Query StripDespite(const Query& query) {
  Query stripped = query;
  stripped.despite = Predicate::True();
  return stripped;
}

void Fixture::SetQuery(Query query) {
  query.first_id = poi_first_id_;
  query.second_id = poi_second_id_;
  query_ = std::move(query);
}

namespace {

/// Picks the pair of interest: the first pair satisfying the query's
/// des AND obs plus an extra finder-only constraint.
void PickPairOfInterest(const ExecutionLog& log, Query& query,
                        const std::string& finder_extra,
                        std::string& first_id, std::string& second_id) {
  Query finder = query;
  if (!finder_extra.empty()) {
    auto extra = ParsePredicate(finder_extra);
    PX_CHECK(extra.ok()) << extra.status().ToString();
    finder.despite = finder.despite.And(extra.value());
  }
  auto poi = Engine(log).FindPairOfInterest(finder);
  PX_CHECK(poi.ok()) << "no pair of interest: " << poi.status().ToString();
  first_id = log.at(poi->first).id;
  second_id = log.at(poi->second).id;
  query.first_id = first_id;
  query.second_id = second_id;
}

}  // namespace

Fixture Fixture::JobLevel(const HarnessOptions& options,
                          const std::string& poi_finder_extra) {
  Fixture fixture;
  fixture.options_ = options;
  TraceOptions trace_options;
  trace_options.seed = options.trace_seed;
  Trace trace = GenerateTrace(trace_options).value();
  fixture.full_log_ = std::move(trace.job_log);
  fixture.query_ = WhySlowerDespiteSameNumInstancesQuery();
  const std::string extra = poi_finder_extra.empty()
                                ? "inputsize_compare = GT AND "
                                  "pigscript = simple-filter.pig"
                                : poi_finder_extra;
  PickPairOfInterest(fixture.full_log_, fixture.query_, extra,
                     fixture.poi_first_id_, fixture.poi_second_id_);
  return fixture;
}

Fixture Fixture::TaskLevel(const HarnessOptions& options) {
  Fixture fixture;
  fixture.options_ = options;
  TraceOptions trace_options;
  trace_options.seed = options.trace_seed;
  Trace trace = GenerateTrace(trace_options).value();

  // Keep tasks from multi-wave jobs only (where the last-task effect
  // exists), capped at task_jobs_limit jobs for tractable O(n^2) pair
  // enumeration.
  const Schema& job_schema = trace.job_log.schema();
  const std::size_t f_maps = job_schema.IndexOf(feature_names::kNumMapTasks);
  const std::size_t f_instances =
      job_schema.IndexOf(feature_names::kNumInstances);
  std::set<std::string> keep_jobs;
  for (const auto& record : trace.job_log.records()) {
    if (keep_jobs.size() >= options.task_jobs_limit) break;
    const double maps = record.values[f_maps].number();
    const double instances = record.values[f_instances].number();
    // At least three waves of map tasks and a non-trivial cluster.
    if (instances >= 2 && maps >= 3 * 2 * instances) {
      keep_jobs.insert(record.id);
    }
  }
  const Schema& task_schema = trace.task_log.schema();
  const std::size_t f_job = task_schema.IndexOf(feature_names::kJobId);
  const std::size_t f_type = task_schema.IndexOf(feature_names::kTaskType);
  fixture.full_log_ =
      trace.task_log.Filter([&](const ExecutionRecord& record) {
        return record.values[f_type].nominal() == "map" &&
               keep_jobs.count(record.values[f_job].nominal()) > 0;
      });
  PX_CHECK(!fixture.full_log_.empty()) << "no multi-wave tasks in trace";

  fixture.query_ = WhyLastTaskFasterQuery();
  // The paper's anecdote: the last task ran alone on its instance while the
  // earlier task shared it with a second concurrent task — visible as a
  // lower average CPU/process load during the faster task.
  PickPairOfInterest(fixture.full_log_, fixture.query_,
                     "wave_index_compare = GT AND "
                     "avg_cpu_user_compare = LT",
                     fixture.poi_first_id_, fixture.poi_second_id_);
  return fixture;
}

Fixture::SplitLogs Fixture::Split(int run) const {
  return SplitWith(run, options_.train_fraction,
                   [](const ExecutionRecord&) { return true; });
}

Fixture::SplitLogs Fixture::SplitWith(
    int run, double train_fraction,
    const std::function<bool(const ExecutionRecord&)>& keep_train) const {
  Rng rng(options_.split_seed + static_cast<std::uint64_t>(run) * 1000003);
  auto [train, test] = full_log_.RandomSplit(train_fraction, rng);
  ExecutionLog filtered_train = train.Filter(keep_train);
  // The training log always contains the pair of interest (§6.5: "plus the
  // pair of interest").
  PX_CHECK(filtered_train
               .EnsureRecords(full_log_, {poi_first_id_, poi_second_id_})
               .ok());
  return {std::move(filtered_train), std::move(test)};
}

double Series::mean() const { return Mean(values); }
double Series::stddev() const { return StdDev(values); }

std::string Series::ToString() const {
  return StrFormat("%.3f +- %.3f", mean(), stddev());
}

std::string RunReport::ToString() const {
  std::string text;
  if (tile_hits + tile_misses + tile_evictions > 0) {
    text += StrFormat("tiles %llu hits / %llu misses / %llu evictions",
                      static_cast<unsigned long long>(tile_hits),
                      static_cast<unsigned long long>(tile_misses),
                      static_cast<unsigned long long>(tile_evictions));
  }
  if (result_cache_hit) {
    if (!text.empty()) text += ", ";
    text += "result cache hit";
  }
  return text;
}

std::optional<ExplanationMetrics> RunOnce(const Fixture& fixture,
                                          const Fixture::SplitLogs& logs,
                                          Technique technique,
                                          std::size_t width,
                                          const EngineOptions& options,
                                          RunReport* report) {
  const Engine engine(logs.train, options);
  if (report != nullptr) *report = RunReport{};
  Explanation explanation;  // width 0: empty (true) explanation
  if (width > 0) {
    auto prepared = engine.Prepare(fixture.query());
    if (!prepared.ok()) return std::nullopt;
    ExplainRequest request;
    request.technique = technique;
    request.width = width;
    auto response = engine.Explain(*prepared, request);
    if (!response.ok()) return std::nullopt;
    if (report != nullptr) {
      report->pair_store_hit = response->pair_store_hit;
      report->pair_store_built = response->pair_store_built;
      report->result_cache_hit = response->result_cache_hit;
      report->tile_hits = response->tile_hits;
      report->tile_misses = response->tile_misses;
      report->tile_evictions = response->tile_evictions;
    }
    explanation = std::move(response).value().explanation;
  }
  auto metrics = engine.EvaluateOn(logs.test, fixture.query(), explanation);
  if (!metrics.ok()) return std::nullopt;
  return metrics.value();
}

std::string OverRuns(const HarnessOptions& options) {
  return StrFormat("over %d run%s", options.runs,
                   options.runs == 1 ? "" : "s");
}

std::string MeanStddevOverRuns(const HarnessOptions& options) {
  return "mean +- stddev " + OverRuns(options);
}

void PrintHeader(const std::string& title, const std::string& description) {
  std::printf("== %s ==\n%s\n\n", title.c_str(), description.c_str());
}

void PrintRow(const std::vector<std::string>& cells, int cell_width) {
  for (const auto& cell : cells) {
    std::printf("%-*s", cell_width, cell.c_str());
  }
  std::printf("\n");
}

}  // namespace perfxplain::bench
