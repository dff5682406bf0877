#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "core/pair_enumeration.h"
#include "features/pair_code_store.h"
#include "stats.h"

namespace perfbench {

namespace {

/// The per-layer metrics of a traced run, in output order, with units.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"pxql.prepare_ms", "ms"},
      {"log.snapshot_build_ms", "ms"},
      {"log.rows", "count"},
      {"core.scan_ms", "ms"},
      {"core.related_pairs", "count"},
      {"core.scan_overflows", "count"},
      {"core.unattributed_ms", "ms"},
      {"ml.examples_ms", "ms"},
      {"ml.clause_ms", "ms"},
      {"ml.relief_rank_ms", "ms"},
      {"features.plane_build_ms", "ms"},
      {"features.tile_hits_per_req", "count"},
      {"features.tile_misses_per_req", "count"},
      {"features.tile_evictions_per_req", "count"},
      {"features.tile_hit_ratio", "ratio"},
      {"features.resident_mb", "MB"},
      {"ingest.parse_ms_per_job", "ms"},
      {"ingest.records_per_job", "count"},
      {"serving.stage_ms", "ms"},
      {"serving.rotate_ms", "ms"},
      {"serving.rotations", "count"},
      {"serving.plane_seeded_ratio", "ratio"},
      {"serving.pending_rows_at_read", "count"},
      {"storage.fsyncs_per_batch", "count"},
      {"storage.fsync_ms", "ms"},
      {"storage.wal_bytes_per_record", "B"},
      {"storage.write_amp", "ratio"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.checkpoint_mb", "MB"},
      {"storage.recover_read_mb", "MB"},
      {"storage.recover_read_ms", "ms"},
      {"storage.replayed_records", "count"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

px::EngineOptions EngineOptionsFor(int threads, std::size_t budget) {
  px::EngineOptions options;
  options.explainer.threads = threads;
  options.sim_but_diff.threads = threads;
  options.sim_but_diff.pair_code_budget_bytes = budget;
  options.rule_of_thumb.relief.threads = threads;
  options.result_cache_bytes = 0;
  return options;
}

px::ExplainRequest MakeRequest(px::Technique technique, int threads) {
  px::ExplainRequest request;
  request.technique = technique;
  request.width = kWidth;
  request.threads = threads;
  return request;
}

std::string Canonical(const px::Explanation& explanation) {
  std::string out = explanation.ToString();
  for (const auto* trace :
       {&explanation.despite_trace, &explanation.because_trace}) {
    for (const px::ExplanationAtom& atom : *trace) {
      out += px::StrFormat("|%s %a %a %a %a", atom.atom.ToString().c_str(),
                           atom.info_gain, atom.metric_after,
                           atom.generality_after, atom.score);
    }
  }
  return out;
}

const char* SpanFor(px::Technique technique) {
  switch (technique) {
    case px::Technique::kPerfXplain: return "core.perfxplain";
    case px::Technique::kSimButDiff: return "core.simbutdiff";
    case px::Technique::kRuleOfThumb: return "core.ruleofthumb";
  }
  return "core.explain";
}

RunState::RunState(const RunOptions& run_options)
    : options(run_options), tracer(run_options.trace) {}

void RunState::Fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (errors_.size() < 20) errors_.push_back(what);
}

void RunState::Finish(RunResult& result) {
  result.attempted = attempted_.load();
  result.failed = failed_.load();
  result.correct = result.failed == 0;
  std::lock_guard<std::mutex> lock(mutex_);
  result.errors = errors_;
}

void RunState::WriteSpans() const {
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

void ReplayStaged(RunState& run, const px::Engine& engine,
                  const Answer& answer, int threads) {
  px::ExplainerOptions options = engine.options().explainer;
  options.width = kWidth;
  options.threads = threads;
  run.Attempt();
  px::RelatedPairScan scan;
  double scan_ms = 0.0;
  {
    Tracer::Scope span(run.tracer, "core.scan");
    scan = px::ScanRelatedPairs(engine.snapshot()->columns(),
                                answer.prepared.compiled(),
                                options.pair.sim_fraction,
                                px::EnumerationOptions{threads});
    scan_ms = span.ElapsedMs();
  }
  run.samples.Add("core.scan_ms", scan_ms);
  run.samples.Add("core.related_pairs",
                  static_cast<double>(scan.counts.total()));
  run.samples.Add("core.scan_overflows", scan.overflowed ? 1.0 : 0.0);
  // An overflowed scan keeps no pair list, so it has no staged replay.
  if (scan.overflowed) return;
  double examples_ms = 0.0;
  px::Result<px::EncodedDataset> examples = [&] {
    Tracer::Scope span(run.tracer, "ml.examples");
    auto built = engine.explainer().BuildEncodedExamplesFromScan(
        answer.prepared.bound(), scan, answer.prepared.poi_first(),
        answer.prepared.poi_second(), options);
    examples_ms = span.ElapsedMs();
    return built;
  }();
  if (!examples.ok()) {
    run.Fail("staged examples: " + examples.status().ToString());
    return;
  }
  double clause_ms = 0.0;
  px::Result<px::Explanation> explanation = [&] {
    Tracer::Scope span(run.tracer, "ml.clause");
    auto generated = engine.explainer().ExplainPreparedWithExamples(
        answer.prepared.bound(), *examples, options);
    clause_ms = span.ElapsedMs();
    return generated;
  }();
  if (!explanation.ok() ||
      Canonical(*explanation) != Canonical(answer.response.explanation)) {
    run.Fail("staged replay differs from Engine::Explain");
    return;
  }
  run.samples.Add("ml.examples_ms", examples_ms);
  run.samples.Add("ml.clause_ms", clause_ms);
  run.samples.Add("core.unattributed_ms",
                  answer.explain_ms - scan_ms - examples_ms - clause_ms);
}

void RecordTiles(RunState& run, const px::ExplainResponse& response) {
  run.samples.Add("features.tile_hits",
                  static_cast<double>(response.tile_hits));
  run.samples.Add("features.tile_misses",
                  static_cast<double>(response.tile_misses));
  run.samples.Add("features.tile_evictions",
                  static_cast<double>(response.tile_evictions));
}

double ResidentMb(const px::LogSnapshot& snapshot) {
  return static_cast<double>(snapshot.pair_codes().resident_bytes()) / 1e6;
}

namespace {

/// The host-speed reference kernel's input: 1,024 pseudo-random values
/// (4 KiB, cache-resident).
const std::vector<std::uint32_t>& ReferenceInput() {
  static const std::vector<std::uint32_t> input = [] {
    std::vector<std::uint32_t> values(1024);
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t& v : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x % 1000);
    }
    return values;
  }();
  return input;
}

volatile std::uint64_t reference_sink = 0;

}  // namespace

double ReferenceMs(int times) {
  // An all-pairs compare with data-dependent branches, like a pair scan.
  const std::vector<std::uint32_t>& a = ReferenceInput();
  std::vector<double> durations;
  for (int t = 0; t < times; ++t) {
    const Clock::time_point start = Clock::now();
    std::uint64_t acc = 0;
    for (const std::uint32_t ai : a) {
      for (const std::uint32_t aj : a) {
        if (ai < aj) {
          acc += ai ^ aj;
        } else if (ai == aj) {
          acc += 7;
        } else if ((ai & 3) == (aj & 3)) {
          acc += 1;
        }
      }
    }
    reference_sink = acc;
    durations.push_back(MsSince(start));
  }
  return Median(durations);
}

void Timings::Add(double value, int times) {
  const double reference = ReferenceMs(times);
  raw.push_back(value);
  reference_ms.push_back(reference);
  normalized.push_back(
      value * std::pow(kNominalReferenceMs / reference, kHostSpeedExponent));
}

void Latencies::Add(px::Technique technique, double ms) {
  (technique == px::Technique::kPerfXplain ? perfxplain : simbutdiff).Add(ms);
}

void ReportLatency(Json& report, const std::string& name,
                   const Timings& latencies) {
  const LatencySummary summary = Summarize(latencies.normalized);
  report.Metric(name + "_p50_ms", summary.p50, "ms");
  if (summary.p90.has_value()) {
    report.Metric(name + "_p90_ms", *summary.p90, "ms");
  } else {
    report.Null(name + "_p90_ms");
  }
  report.Metric(name + "_p50_raw_ms", Median(latencies.raw), "ms");
  report.Obj(name + "_samples",
             Json()
                 .Int("count", static_cast<std::int64_t>(summary.count))
                 .Num("percentile", summary.tail_pct)
                 .Num("value_ms", summary.tail));
}

void ReportSetup(Json& report, const Timings& setup_s,
                 const Latencies& measured) {
  report.Metric("setup_s", Median(setup_s.normalized), "s");
  report.Metric("setup_raw_s", Median(setup_s.raw), "s");
  report.Int("setup_samples", static_cast<std::int64_t>(setup_s.raw.size()));
  std::vector<double> requests = measured.perfxplain.reference_ms;
  requests.insert(requests.end(), measured.simbutdiff.reference_ms.begin(),
                  measured.simbutdiff.reference_ms.end());
  report.Obj("host_reference",
             Json()
                 .Num("nominal_ms", kNominalReferenceMs)
                 .Num("setup_ms", Median(setup_s.reference_ms))
                 .Num("requests_ms", Median(requests)));
}

void ReportErrorRate(Json& report, const RunResult& result) {
  report.Metric("error_rate",
                static_cast<double>(result.failed) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, result.attempted)),
                "ratio");
}

Json EndToEnd(const Timings& setup_s, const Latencies& latencies,
              double peak_rss_mb) {
  Json metrics;
  metrics.Metric("setup_s", Median(setup_s.normalized), "s")
      .Metric("perfxplain_p50_ms", Median(latencies.perfxplain.normalized),
              "ms")
      .Metric("simbutdiff_p50_ms", Median(latencies.simbutdiff.normalized),
              "ms")
      .Metric("peak_rss_mb", peak_rss_mb, "MB");
  return metrics;
}

Json PerLayer(const RunState& run, std::map<std::string, double> values,
              const Latencies& untraced, const Latencies& traced) {
  auto median_span = [&](const char* span) {
    return Median(run.tracer.DurationsMs(span));
  };
  auto median_sample = [&](const char* name) {
    return Median(run.samples.Get(name));
  };
  values.emplace("pxql.prepare_ms", median_span("pxql.prepare"));
  values.emplace("log.snapshot_build_ms", median_span("log.snapshot_build"));
  values.emplace("core.scan_ms", median_sample("core.scan_ms"));
  values.emplace("core.related_pairs", median_sample("core.related_pairs"));
  values.emplace("core.scan_overflows",
                 run.samples.Sum("core.scan_overflows"));
  values.emplace("core.unattributed_ms",
                 median_sample("core.unattributed_ms"));
  values.emplace("ml.examples_ms", median_sample("ml.examples_ms"));
  values.emplace("ml.clause_ms", median_sample("ml.clause_ms"));
  values.emplace("ml.relief_rank_ms", median_span("ml.relief_rank"));
  values.emplace("features.plane_build_ms",
                 median_span("features.plane_build"));
  const double hits = run.samples.Sum("features.tile_hits");
  const double misses = run.samples.Sum("features.tile_misses");
  values.emplace("features.tile_hits_per_req",
                 Mean(run.samples.Get("features.tile_hits")));
  values.emplace("features.tile_misses_per_req",
                 Mean(run.samples.Get("features.tile_misses")));
  values.emplace("features.tile_evictions_per_req",
                 Mean(run.samples.Get("features.tile_evictions")));
  values.emplace("features.tile_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0);
  values.emplace("trace.overhead_ms",
                 Median(traced.perfxplain.normalized) -
                     Median(untraced.perfxplain.normalized));
  Json metrics;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    metrics.Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  return metrics;
}

}  // namespace perfbench
