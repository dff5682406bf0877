// Microbenchmarks (google-benchmark) of the pieces behind PerfXplain's
// interactive response time (§4.3 motivates sampling with explanation
// latency): pair enumeration, training-example construction with
// balanced sampling, clause generation at several sample sizes, and
// explanation evaluation. Also an ablation of the percentile-rank score
// normalization (DESIGN.md decision 1).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "common/string_util.h"
#include "harness.h"
#include "log/catalog.h"
#include "ml/relief.h"
#include "serving/live_engine.h"
#include "simulator/trace_generator.h"

namespace px = perfxplain;

namespace {

/// Shared fixture: one moderate job trace + query 2 with a pair of
/// interest. Built once.
struct MicroFixture {
  px::ExecutionLog log;
  px::Query query;

  static const MicroFixture& Get() {
    static const MicroFixture& fixture = *new MicroFixture(Build());
    return fixture;
  }

  static MicroFixture Build() {
    px::bench::HarnessOptions options;
    px::bench::Fixture base = px::bench::Fixture::JobLevel(options);
    MicroFixture fixture;
    fixture.log = base.full_log();
    fixture.query = base.query();
    return fixture;
  }
};

/// The `skip`-th ordered pair of the fixture log satisfying `bound`'s
/// despite and observed clauses.
std::pair<std::size_t, std::size_t> FindPoi(const px::Query& bound,
                                            std::size_t skip = 0) {
  auto poi =
      px::Engine(MicroFixture::Get().log).FindPairOfInterest(bound, skip);
  PX_CHECK(poi.ok()) << poi.status().ToString();
  return *poi;
}

void BM_SimulateJob(benchmark::State& state) {
  px::ClusterConfig cluster;
  px::SimCostModel costs;
  px::ExciteStats stats;
  px::JobConfig config;
  config.num_instances = static_cast<int>(state.range(0));
  config.input_size_bytes = 1.3 * 1024 * 1024 * 1024;
  config.block_size_bytes = 64.0 * 1024 * 1024;
  px::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        px::SimulateJob(config, cluster, stats, costs, rng).value());
  }
}
BENCHMARK(BM_SimulateJob)->Arg(1)->Arg(4)->Arg(16);

/// The Definition 8/9 label counts alone: a ScanRelatedPairs that buffers
/// no pair.
px::RelatedCounts CountRelated(const px::ColumnarLog& columns,
                               const px::CompiledQuery& compiled,
                               px::EnumerationOptions enumeration) {
  enumeration.sample_buffer_cap = 0;
  return px::ScanRelatedPairs(columns, compiled, 0.10, enumeration).counts;
}

/// Counting from the row log: builds the columnar replica and compiles the
/// query on every iteration.
void BM_CountRelatedPairs(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  px::PairSchema schema(fixture.log.schema());
  px::Query bound = fixture.query;
  PX_CHECK(bound.Bind(schema).ok());
  for (auto _ : state) {
    const px::ColumnarLog columns(fixture.log);
    benchmark::DoNotOptimize(CountRelated(
        columns, px::CompiledQuery::Compile(bound, schema, columns), {}));
  }
}
BENCHMARK(BM_CountRelatedPairs);

void BM_ColumnarLogBuild(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  for (auto _ : state) {
    px::ColumnarLog columns(fixture.log);
    benchmark::DoNotOptimize(columns.rows());
  }
}
BENCHMARK(BM_ColumnarLogBuild);

/// The steady-state enumeration cost: columns and predicate programs are
/// built once (as the Explainer does) and only the O(n^2) scan is timed.
void BM_CountRelatedPairsColumnar(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  px::PairSchema schema(fixture.log.schema());
  px::Query bound = fixture.query;
  PX_CHECK(bound.Bind(schema).ok());
  const px::ColumnarLog columns(fixture.log);
  const px::CompiledQuery compiled =
      px::CompiledQuery::Compile(bound, schema, columns);
  px::EnumerationOptions enumeration;
  enumeration.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountRelated(columns, compiled, enumeration));
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CountRelatedPairsColumnar)->Arg(1)->Arg(0);

/// Lines 1-2 of Algorithm 1 as the explainer runs them: the related-pair
/// scan, the §4.3 draws and the encoded training matrix, over prebuilt
/// columns and predicate programs.
void BM_SampleAndEncode(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  px::PairSchema schema(fixture.log.schema());
  px::Query bound = fixture.query;
  PX_CHECK(bound.Bind(schema).ok());
  const px::ColumnarLog columns(fixture.log);
  const px::CompiledQuery compiled =
      px::CompiledQuery::Compile(bound, schema, columns);
  const auto [first, second] = FindPoi(bound);
  for (auto _ : state) {
    px::Rng rng(17);
    auto sampled = px::SampleFromScan(
        px::ScanRelatedPairs(columns, compiled, 0.10), columns, compiled,
        first, second, 0.10, px::SamplerOptions(), rng);
    PX_CHECK(sampled.ok());
    benchmark::DoNotOptimize(
        px::EncodedDataset(columns, schema, sampled.value(), 0.10));
  }
}
BENCHMARK(BM_SampleAndEncode);

void BM_ExplainWidth3(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  px::EngineOptions options;
  options.explainer.sampler.sample_size =
      static_cast<std::size_t>(state.range(0));
  const px::Engine engine(fixture.log, options);
  // Prepare inside the loop: this timer tracks the historical per-call
  // Explain cost (parse-bound query through explanation), so it stays
  // comparable with the before_ns of earlier PRs.
  for (auto _ : state) {
    auto prepared = engine.Prepare(fixture.query);
    PX_CHECK(prepared.ok());
    auto response = engine.Explain(*prepared);
    PX_CHECK(response.ok());
    benchmark::DoNotOptimize(response);
  }
  state.SetLabel("sample_size=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ExplainWidth3)->Arg(500)->Arg(2000)->Arg(8000);

/// The §5.2 SimButDiff baseline on the columnar path: compiled query,
/// packed 2-bit isSame codes compared against the poi with XOR+popcount
/// word kernels, row-blocked scan. Arg = thread count (1 = per-core
/// cost, 0 = hardware concurrency). A
/// zero pair-code budget keeps every pair on the streaming
/// pack-and-compare, and Prepare runs per call, so the timing stays
/// comparable with the per-call figures in BENCH_micro.json.
void BM_SimButDiffExplain(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  px::EngineOptions options;
  options.sim_but_diff.threads = static_cast<int>(state.range(0));
  options.sim_but_diff.pair_code_budget_bytes = 0;
  const px::Engine engine(fixture.log, options);
  px::ExplainRequest request;
  request.technique = px::Technique::kSimButDiff;
  request.width = 3;
  for (auto _ : state) {
    auto prepared = engine.Prepare(fixture.query);
    PX_CHECK(prepared.ok());
    auto response = engine.Explain(*prepared, request);
    PX_CHECK(response.ok()) << response.status().ToString();
    benchmark::DoNotOptimize(response);
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_SimButDiffExplain)->Arg(1)->Arg(0);

/// The §5.1 RuleOfThumb one-time RReliefF ranking pass (the baseline's
/// construction cost; its per-query Explain is O(k)) on the columnar
/// backend, with the columns prebuilt as the Engine shares them. Arg =
/// thread count for the striped probe loop (1 = per-core cost, 0 =
/// hardware concurrency); weights are bitwise identical either way.
void BM_RuleOfThumbRank(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const px::ColumnarLog columns(fixture.log);
  const std::size_t target =
      fixture.log.schema().IndexOf(px::feature_names::kDuration);
  px::ReliefOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    px::Rng rng(29);
    benchmark::DoNotOptimize(
        px::RankFeaturesByImportance(columns, target, options, rng));
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_RuleOfThumbRank)->Arg(1)->Arg(0);

void BM_EvaluateExplanation(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const px::Engine engine(fixture.log);
  auto prepared = engine.Prepare(fixture.query);
  PX_CHECK(prepared.ok());
  auto response = engine.Explain(*prepared);
  PX_CHECK(response.ok());
  for (auto _ : state) {
    auto metrics = engine.Evaluate(*prepared, response->explanation);
    PX_CHECK(metrics.ok());
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_EvaluateExplanation);

/// The batch path of the service API: Q SimButDiff queries (same query
/// shape, different pairs of interest) answered by Engine::ExplainBatch —
/// one scan of the shape's candidate pairs for all Q pairs of interest —
/// against the same Q queries issued one Explain at a time. Args:
///   0: Q, the query count;
///   1: pair-code budget denominator (0 = streaming, 8 = an eighth of a
///      plane, 1 = resident plane);
///   2: shape — 0 "broad", the harness query (its isSame despite prunes
///      little), 1 "selective", BM_BudgetSweep's base-atom despite.
/// Single worker thread, so the speedup over the per-call loop is pure
/// amortization, not parallelism. Every pair of interest is explained
/// once before timing, so both timers measure steady-state serving, not
/// the one-time plane fill or first-touch tile builds
/// (BM_SequentialExplainStream mode=cold tracks those).
struct BatchFixture {
  std::unique_ptr<px::Engine> engine;
  std::vector<px::PreparedQuery> prepared;
  px::ExplainRequest request;
  std::string label;

  explicit BatchFixture(const benchmark::State& state) {
    const MicroFixture& fixture = MicroFixture::Get();
    const std::size_t count = static_cast<std::size_t>(state.range(0));
    const long denom = state.range(1);
    const bool selective = state.range(2) != 0;
    px::Query base = fixture.query;
    if (selective) {
      auto parsed = px::ParseQuery(
          "DESPITE numinstances = 16 AND pigscript = simple-filter.pig "
          "OBSERVED duration_compare = GT "
          "EXPECTED duration_compare = SIM");
      PX_CHECK(parsed.ok()) << parsed.status().ToString();
      base = std::move(parsed).value();
    }
    const std::size_t plane = px::PairCodeStore::BytesNeeded(
        fixture.log.size(), fixture.log.schema().size());
    px::EngineOptions options;
    options.sim_but_diff.threads = 1;
    options.sim_but_diff.pair_code_budget_bytes =
        denom == 0 ? 0 : plane / static_cast<std::size_t>(denom);
    engine = std::make_unique<px::Engine>(fixture.log, options);
    px::PairSchema schema(fixture.log.schema());
    px::Query bound = base;
    PX_CHECK(bound.Bind(schema).ok());
    request.technique = px::Technique::kSimButDiff;
    for (std::size_t q = 0; q < count; ++q) {
      // Distinct pairs of interest: skip a stride of matches per query.
      const auto poi = FindPoi(bound, q * (selective ? 13 : 97));
      px::Query query = base;
      query.first_id = fixture.log.at(poi.first).id;
      query.second_id = fixture.log.at(poi.second).id;
      auto one = engine->Prepare(query);
      PX_CHECK(one.ok());
      prepared.push_back(std::move(one).value());
      auto response = engine->Explain(prepared.back(), request);
      PX_CHECK(response.ok()) << response.status().ToString();
    }
    label = "queries=" + std::to_string(count) + " budget=" +
            (denom == 0   ? std::string("0")
             : denom == 1 ? std::string("plane")
                          : "plane/" + std::to_string(denom)) +
            (selective ? " shape=selective" : " shape=broad") + " threads=1";
  }
};

void BatchArgs(benchmark::internal::Benchmark* bench) {
  for (long queries : {4, 8}) {
    for (long denom : {0, 8, 1}) {
      for (long selective : {0, 1}) {
        bench->Args({queries, denom, selective});
      }
    }
  }
}

void BM_ExplainBatch(benchmark::State& state) {
  const BatchFixture fixture(state);
  std::vector<px::Engine::BatchItem> items;
  for (const px::PreparedQuery& one : fixture.prepared) {
    items.push_back(px::Engine::BatchItem{&one, fixture.request});
  }
  for (auto _ : state) {
    auto responses = fixture.engine->ExplainBatch(items);
    for (const auto& response : responses) {
      PX_CHECK(response.ok()) << response.status().ToString();
    }
    benchmark::DoNotOptimize(responses);
  }
  state.SetLabel(fixture.label);
}
BENCHMARK(BM_ExplainBatch)->Apply(BatchArgs);

/// The same Q SimButDiff queries issued one Explain at a time — the cost
/// ExplainBatch amortizes (Q selection derivations and Q scans).
void BM_ExplainBatchPerCallLoop(benchmark::State& state) {
  const BatchFixture fixture(state);
  for (auto _ : state) {
    for (const px::PreparedQuery& one : fixture.prepared) {
      auto response = fixture.engine->Explain(one, fixture.request);
      PX_CHECK(response.ok()) << response.status().ToString();
      benchmark::DoNotOptimize(response);
    }
  }
  state.SetLabel(fixture.label);
}
BENCHMARK(BM_ExplainBatchPerCallLoop)->Apply(BatchArgs);

/// The sequential serving pattern the PairCodeStore exists for: Q
/// SimButDiff queries (same shape, different pairs of interest) arriving
/// one Explain at a time — too far apart to batch. Arg 0 selects the
/// path, arg 1 the worker-thread count:
///   mode 0 ("percall")  — pair-code budget 0: today's streaming fused
///                         pack-and-compare per call (the baseline);
///   mode 1 ("cold")     — a fresh snapshot per iteration: the stream
///                         pays the one-time snapshot + store build;
///   mode 2 ("warm")     — store prebuilt: every call runs pure
///                         XOR+mask+popcount over resident words.
struct StreamFixture {
  std::vector<px::Query> queries;

  explicit StreamFixture(std::size_t count) {
    const MicroFixture& fixture = MicroFixture::Get();
    px::PairSchema schema(fixture.log.schema());
    px::Query bound = fixture.query;
    PX_CHECK(bound.Bind(schema).ok());
    for (std::size_t q = 0; q < count; ++q) {
      const auto poi = FindPoi(bound, q * 97);
      px::Query query = fixture.query;
      query.first_id = fixture.log.at(poi.first).id;
      query.second_id = fixture.log.at(poi.second).id;
      queries.push_back(std::move(query));
    }
  }

  static const StreamFixture& Get() {
    static const StreamFixture& fixture = *new StreamFixture(8);
    return fixture;
  }
};

void BM_SequentialExplainStream(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const StreamFixture& stream = StreamFixture::Get();
  const long mode = state.range(0);
  px::EngineOptions options;
  options.sim_but_diff.threads = static_cast<int>(state.range(1));
  if (mode == 0) options.sim_but_diff.pair_code_budget_bytes = 0;
  px::ExplainRequest request;
  request.technique = px::Technique::kSimButDiff;

  if (mode == 1) {
    for (auto _ : state) {
      px::Engine engine(fixture.log, options);
      for (const px::Query& query : stream.queries) {
        auto prepared = engine.Prepare(query);
        PX_CHECK(prepared.ok());
        auto response = engine.Explain(*prepared, request);
        PX_CHECK(response.ok()) << response.status().ToString();
        benchmark::DoNotOptimize(response);
      }
    }
  } else {
    px::Engine engine(fixture.log, options);
    std::vector<px::PreparedQuery> prepared;
    for (const px::Query& query : stream.queries) {
      auto one = engine.Prepare(query);
      PX_CHECK(one.ok());
      prepared.push_back(std::move(one).value());
    }
    if (mode == 2) {
      // Prebuild the store so the loop times only warm calls.
      auto response = engine.Explain(prepared[0], request);
      PX_CHECK(response.ok()) << response.status().ToString();
      PX_CHECK(response->pair_store_hit);
    }
    for (auto _ : state) {
      for (const px::PreparedQuery& one : prepared) {
        auto response = engine.Explain(one, request);
        PX_CHECK(response.ok()) << response.status().ToString();
        benchmark::DoNotOptimize(response);
      }
    }
  }
  static const char* kModes[] = {"percall", "cold", "warm"};
  state.SetLabel(std::string("mode=") + kModes[mode] + " queries=8 threads=" +
                 std::to_string(state.range(1)));
}
BENCHMARK(BM_SequentialExplainStream)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({2, 0});

/// Selection-vector pruning on a selective query: the despite clause's
/// first deterministic atom (pigscript = simple-filter.pig, a base
/// nominal atom) compiles to a single-column dictionary scan whose
/// selection vector shrinks the pair loop from n² to |sel|². Arg 0
/// toggles pruning (0 = full n² scan, the baseline), arg 1 is the
/// worker-thread count; counts are bitwise identical either way.
void BM_SelectiveQueryPruning(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  px::PairSchema schema(fixture.log.schema());
  auto parsed = px::ParseQuery(
      "DESPITE pigscript = simple-filter.pig AND numinstances_isSame = T "
      "OBSERVED duration_compare = GT "
      "EXPECTED duration_compare = SIM");
  PX_CHECK(parsed.ok()) << parsed.status().ToString();
  px::Query bound = std::move(parsed).value();
  PX_CHECK(bound.Bind(schema).ok());
  const px::ColumnarLog columns(fixture.log);
  const px::CompiledQuery compiled =
      px::CompiledQuery::Compile(bound, schema, columns);
  px::EnumerationOptions enumeration;
  enumeration.prune = state.range(0) != 0;
  enumeration.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountRelated(columns, compiled, enumeration));
  }
  state.SetLabel(std::string("prune=") +
                 (enumeration.prune ? "on" : "off") +
                 " threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_SelectiveQueryPruning)->Args({1, 1})->Args({0, 1});

/// The task-level log of §6.2 (tasks of the multi-wave jobs, ~1.9k rows at
/// the default job limit). Built once.
const px::ExecutionLog& TaskLevelLog() {
  static const px::ExecutionLog& log = *new px::ExecutionLog(
      px::bench::Fixture::TaskLevel(px::bench::HarnessOptions())
          .full_log());
  return log;
}

/// Equi-join pruning on the "why was the last task faster" question: its
/// despite clause pins jobID_isSame = T and hostname_isSame = T, so
/// DeriveSelection buckets the rows by (jobID, hostname) and each row
/// pairs only with its own bucket instead of all n rows. Arg 0 toggles
/// pruning (0 = full n² scan), arg 1 is the worker-thread count; counts
/// are bitwise identical either way.
void BM_EquiJoinPruning(benchmark::State& state) {
  const px::ExecutionLog& log = TaskLevelLog();
  px::PairSchema schema(log.schema());
  px::Query bound = px::bench::WhyLastTaskFasterQuery();
  PX_CHECK(bound.Bind(schema).ok());
  const px::ColumnarLog columns(log);
  const px::CompiledQuery compiled =
      px::CompiledQuery::Compile(bound, schema, columns);
  px::EnumerationOptions enumeration;
  enumeration.prune = state.range(0) != 0;
  enumeration.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountRelated(columns, compiled, enumeration));
  }
  state.SetLabel(std::string("prune=") + (enumeration.prune ? "on" : "off") +
                 " rows=" + std::to_string(log.size()) +
                 " threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_EquiJoinPruning)->Args({1, 1})->Args({0, 1});

/// The job-level log of five sweeps of the Table 2 grid (2,700 jobs, one
/// simulator random stream, seed 1). Built once.
const px::ExecutionLog& FiveSweepJobLog() {
  static const px::ExecutionLog& log = *[] {
    px::TraceOptions options;
    px::Rng rng(1);
    const px::ExciteStats stats =
        px::MeasureExciteStats(px::GenerateExciteLog(options.excite, rng));
    auto* built = new px::ExecutionLog(px::MakeJobSchema());
    double clock = 0.0;
    for (int sweep = 0; sweep < 5; ++sweep) {
      for (px::JobConfig& config : px::MakeTable2Grid(sweep * 540)) {
        config.submit_time = clock;
        auto job = px::SimulateJob(config, options.cluster, stats,
                                   options.costs, rng);
        PX_CHECK(job.ok()) << job.status().ToString();
        PX_CHECK(built
                     ->Add(px::JobToRecord(built->schema(), *job,
                                           options.epoch_offset))
                     .ok());
        clock = job->finish_time +
                rng.Exponential(options.inter_job_gap_seconds);
      }
    }
    return built;
  }();
  return log;
}

/// Band-join pruning on the "same instances, same script" question: the
/// 2-valued pigscript_isSame = T is an equi-join, and numinstances_isSame
/// = T cuts the value order of numinstances into band components, so each
/// row pairs only with the rows of its (component, script) bucket and
/// both atoms leave the per-pair program. Arg 0 toggles pruning (0 = full
/// n² scan with the full program), arg 1 is the worker-thread count;
/// counts are bitwise identical either way.
void BM_BandJoinPruning(benchmark::State& state) {
  const px::ExecutionLog& log = FiveSweepJobLog();
  px::PairSchema schema(log.schema());
  auto parsed = px::ParseQuery(
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT "
      "EXPECTED duration_compare = SIM");
  PX_CHECK(parsed.ok()) << parsed.status().ToString();
  px::Query bound = std::move(parsed).value();
  PX_CHECK(bound.Bind(schema).ok());
  const px::ColumnarLog columns(log);
  const px::CompiledQuery compiled =
      px::CompiledQuery::Compile(bound, schema, columns);
  px::EnumerationOptions enumeration;
  enumeration.prune = state.range(0) != 0;
  enumeration.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountRelated(columns, compiled, enumeration));
  }
  state.SetLabel(std::string("prune=") + (enumeration.prune ? "on" : "off") +
                 " rows=" + std::to_string(log.size()) +
                 " threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_BandJoinPruning)->Args({1, 1})->Args({0, 1});

/// Clause growth alone (lines 3-17 of Algorithm 1, width 3): one
/// ExplainPreparedWithExamples over a fixed encoded training matrix of the
/// task-level "why was the last task faster" question (~2,000 sampled
/// pairs of the ~1.9k-row log). The engine, scan and matrix are built once
/// outside the timer; no pair-code plane is built.
void BM_ClauseGrowth(benchmark::State& state) {
  const px::bench::Fixture fixture =
      px::bench::Fixture::TaskLevel(px::bench::HarnessOptions());
  px::EngineOptions options;
  options.explainer.threads = 1;
  options.sim_but_diff.pair_code_budget_bytes = 0;
  const px::Engine engine(fixture.full_log(), options);
  auto prepared = engine.Prepare(fixture.query());
  PX_CHECK(prepared.ok()) << prepared.status().ToString();
  const px::ExplainerOptions& explainer_options = engine.options().explainer;
  const px::RelatedPairScan scan = px::ScanRelatedPairs(
      engine.snapshot()->columns(), prepared->compiled(),
      explainer_options.pair.sim_fraction, px::EnumerationOptions{1});
  auto examples = engine.explainer().BuildEncodedExamplesFromScan(
      prepared->bound(), scan, prepared->poi_first(), prepared->poi_second(),
      explainer_options);
  PX_CHECK(examples.ok()) << examples.status().ToString();
  for (auto _ : state) {
    auto explanation = engine.explainer().ExplainPreparedWithExamples(
        prepared->bound(), *examples, explainer_options);
    PX_CHECK(explanation.ok());
    benchmark::DoNotOptimize(explanation);
  }
  state.SetLabel("training_rows=" + std::to_string(examples->rows()) +
                 " log_rows=" + std::to_string(fixture.full_log().size()));
}
BENCHMARK(BM_ClauseGrowth);

/// The buffer-pool budget sweep: a selective SimButDiff query (despite
/// 'numinstances = 16' derives a base-atom selection of roughly n/5 hot
/// rows — only their tiles are ever fetched) served repeatedly at
/// pair-code budgets of 0 (streaming), 1/8, 1/4, 1/2 and a full plane.
/// Arg = budget denominator (0 = streaming baseline, 1 = resident plane).
/// Each engine is warmed once so the loop times steady-state serving:
/// once the budget covers the hot set the tiles stay resident and calls
/// run at plane speed; below that the first hot rows keep their frames
/// and the rest stream, so latency degrades monotonically toward
/// streaming with no cliff in between.
void BM_BudgetSweep(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  auto parsed = px::ParseQuery(
      "DESPITE numinstances = 16 AND pigscript = simple-filter.pig "
      "OBSERVED duration_compare = GT "
      "EXPECTED duration_compare = SIM");
  PX_CHECK(parsed.ok()) << parsed.status().ToString();
  px::Query query = std::move(parsed).value();
  px::PairSchema schema(fixture.log.schema());
  px::Query bound = query;
  PX_CHECK(bound.Bind(schema).ok());
  const auto poi = FindPoi(bound);
  query.first_id = fixture.log.at(poi.first).id;
  query.second_id = fixture.log.at(poi.second).id;

  const std::size_t plane = px::PairCodeStore::BytesNeeded(
      fixture.log.size(), fixture.log.schema().size());
  const long denom = state.range(0);
  px::EngineOptions options;
  options.sim_but_diff.threads = 1;
  options.sim_but_diff.pair_code_budget_bytes =
      denom == 0 ? 0 : plane / static_cast<std::size_t>(denom);
  px::Engine engine(fixture.log, options);
  auto prepared = engine.Prepare(query);
  PX_CHECK(prepared.ok());
  px::ExplainRequest request;
  request.technique = px::Technique::kSimButDiff;
  request.width = 3;
  // One warm call pays the plane or first-touch tile builds up front.
  auto warm = engine.Explain(*prepared, request);
  PX_CHECK(warm.ok()) << warm.status().ToString();
  const px::PairCodeStore& store = engine.snapshot()->pair_codes();
  const std::uint64_t hits0 = store.tile_hits();
  const std::uint64_t misses0 = store.tile_misses();
  for (auto _ : state) {
    auto response = engine.Explain(*prepared, request);
    PX_CHECK(response.ok()) << response.status().ToString();
    benchmark::DoNotOptimize(response);
  }
  const std::uint64_t hits = store.tile_hits() - hits0;
  const std::uint64_t misses = store.tile_misses() - misses0;
  std::string label =
      denom == 0   ? std::string("budget=0(streaming)")
      : denom == 1 ? std::string("budget=plane(resident)")
                   : "budget=plane/" + std::to_string(denom);
  if (hits + misses > 0) {
    label += px::StrFormat(" tile_hit_rate=%.0f%%",
                           100.0 * static_cast<double>(hits) /
                               static_cast<double>(hits + misses));
  }
  state.SetLabel(label);
}
BENCHMARK(BM_BudgetSweep)->Arg(0)->Arg(8)->Arg(4)->Arg(2)->Arg(1);

/// A repeated identical Explain with the result cache on (arg 1) vs off
/// (arg 0). The cached path answers from the keyed LRU entry without
/// touching any scan; the uncached baseline re-runs the warm
/// resident-store SimButDiff scan — the fastest honest comparison, so
/// the measured ratio is a lower bound on what the cache saves against
/// colder paths.
void BM_ResultCacheHit(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const bool cached = state.range(0) != 0;
  px::EngineOptions options;
  options.sim_but_diff.threads = 1;
  if (cached) options.result_cache_bytes = std::size_t{4} << 20;
  px::Engine engine(fixture.log, options);
  auto prepared = engine.Prepare(fixture.query);
  PX_CHECK(prepared.ok());
  px::ExplainRequest request;
  request.technique = px::Technique::kSimButDiff;
  request.width = 3;
  // The warm call builds the pair-code plane and (when enabled) fills
  // the cache, so the loop times a steady-state hit against a warm miss.
  auto warm = engine.Explain(*prepared, request);
  PX_CHECK(warm.ok()) << warm.status().ToString();
  for (auto _ : state) {
    auto response = engine.Explain(*prepared, request);
    PX_CHECK(response.ok()) << response.status().ToString();
    PX_CHECK(response->result_cache_hit == cached);
    benchmark::DoNotOptimize(response);
  }
  state.SetLabel(cached ? "result_cache=hit" : "result_cache=off");
}
BENCHMARK(BM_ResultCacheHit)->Arg(1)->Arg(0);

/// Ablation: precision_weight = 1.0 disables the generality term entirely
/// (and with a single criterion the percentile normalization is moot),
/// exposing how much of the explanation quality the blended, normalized
/// score contributes. Reported as a label, not a timing difference.
void BM_ScoreBlendAblation(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const double weight = static_cast<double>(state.range(0)) / 100.0;
  px::EngineOptions options;
  options.explainer.precision_weight = weight;
  const px::Engine engine(fixture.log, options);
  auto prepared = engine.Prepare(fixture.query);
  PX_CHECK(prepared.ok());
  px::ExplainRequest request;
  request.evaluate = true;
  double generality = 0.0;
  double precision = 0.0;
  for (auto _ : state) {
    auto response = engine.Explain(*prepared, request);
    PX_CHECK(response.ok());
    generality = response->metrics->generality;
    precision = response->metrics->precision;
  }
  state.SetLabel(px::StrFormat("w=%.2f precision=%.3f generality=%.4f",
                               weight, precision, generality));
}
BENCHMARK(BM_ScoreBlendAblation)->Arg(100)->Arg(80)->Arg(50);

/// A fresh record for the fixture schema, values borrowed from an
/// existing row so the append stream looks like real traffic.
px::ExecutionRecord LiveRecord(const px::ExecutionLog& log, std::size_t k) {
  px::ExecutionRecord record = log.at(k % log.size());
  record.id = "live_" + std::to_string(k);
  return record;
}

/// Fresh scratch directory under the system temp dir for the durability
/// benchmarks; wiped first so a prior run's journal never leaks in.
std::string BenchScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("px_bench_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Serving latency while ingesting (the HTAP contract): a fixed count of
/// SimButDiff explains through a LiveEngine, with a writer thread
/// appending records and a background promoter rotating snapshots every
/// 32 staged rows. Arg 0 = quiet baseline (no writer), 1 = ingesting
/// in-memory, 2 = ingesting with a write-ahead journal + checkpoints
/// (--fsync batch, the crash-safe configuration). Reported as p50_ms /
/// p99_ms counters over the explain stream — the acceptance bounds are
/// p99 while appending within 2x of the quiet baseline, and p99 while
/// journaling within 1.3x of it (fsync happens on the writer thread, so
/// durability must not move the serving tail).
void BM_IngestWhileServing(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const int mode = static_cast<int>(state.range(0));
  const bool ingesting = mode != 0;
  px::RotationPolicy policy;
  policy.max_delta_rows = 32;
  policy.promoter_poll_ms = 1;
  px::EngineOptions options;
  options.sim_but_diff.threads = 1;
  std::unique_ptr<px::LiveEngine> live;
  if (mode == 2) {
    const std::string root = BenchScratchDir("ingest_journal");
    px::DurabilityOptions durability;
    durability.wal_dir = root + "/wal";
    durability.checkpoint_dir = root + "/ckpt";
    auto recovered =
        px::LiveEngine::Recover(fixture.log, durability, options, policy);
    PX_CHECK(recovered.ok()) << recovered.status().ToString();
    live = std::move(*recovered);
  } else {
    live = std::make_unique<px::LiveEngine>(fixture.log, options, policy);
  }
  px::ExplainRequest request;
  request.technique = px::Technique::kSimButDiff;
  request.width = 3;
  {
    // Warm the first generation's plane so the quiet baseline is
    // steady-state serving, not a first-touch build.
    auto prepared = live->Prepare(fixture.query);
    PX_CHECK(prepared.ok());
    auto warm = live->Explain(*prepared, request);
    PX_CHECK(warm.ok()) << warm.status().ToString();
  }

  std::atomic<bool> stop{false};
  std::thread writer;
  if (ingesting) {
    live->StartPromoter();
    writer = std::thread([&live, &fixture, &stop] {
      // Bounded stream: the served log grows by at most ~12% so explain
      // cost stays comparable to the quiet baseline's fixed log, paced at
      // one record per millisecond so promotions land mid-stream.
      const std::size_t cap = fixture.log.size() / 8;
      for (std::size_t k = 0; k < cap && !stop.load(); ++k) {
        PX_CHECK(live->Append(LiveRecord(fixture.log, k)).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<double> latencies_ms;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    // Re-prepare per request: rotation retires generations underneath us,
    // and re-preparing is what a live client does.
    auto prepared = live->Prepare(fixture.query);
    PX_CHECK(prepared.ok());
    auto response = live->Explain(*prepared, request);
    PX_CHECK(response.ok()) << response.status().ToString();
    benchmark::DoNotOptimize(response);
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  stop.store(true);
  if (writer.joinable()) writer.join();
  if (ingesting) live->StopPromoter();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto percentile = [&latencies_ms](double q) {
    const std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[index];
  };
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);
  state.SetLabel(px::StrFormat(
      "%s rotations=%llu",
      mode == 0 ? "quiet" : mode == 1 ? "ingesting" : "journaling",
      static_cast<unsigned long long>(live->rotations())));
}
BENCHMARK(BM_IngestWhileServing)->Arg(0)->Arg(1)->Arg(2)->Iterations(512)
    ->Unit(benchmark::kMillisecond);

/// Journaling overhead on the append path itself: one LiveEngine::Append
/// per iteration, no rotation. Arg 0 = no WAL (in-memory baseline),
/// 1 = --fsync none (page cache), 2 = --fsync 64 (batched barriers),
/// 3 = --fsync batch (every batch, the default crash-safe discipline).
void BM_WalAppendOverhead(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const int mode = static_cast<int>(state.range(0));
  px::EngineOptions options;
  options.sim_but_diff.threads = 1;
  px::RotationPolicy policy;  // no auto-rotation: isolate the append
  std::unique_ptr<px::LiveEngine> live;
  if (mode == 0) {
    live = std::make_unique<px::LiveEngine>(fixture.log, options, policy);
  } else {
    px::DurabilityOptions durability;
    durability.wal_dir = BenchScratchDir("wal_append") + "/wal";
    durability.wal.fsync = mode == 1   ? px::FsyncMode::kNone
                           : mode == 2 ? px::FsyncMode::kEveryN
                                       : px::FsyncMode::kEveryBatch;
    auto recovered =
        px::LiveEngine::Recover(fixture.log, durability, options, policy);
    PX_CHECK(recovered.ok()) << recovered.status().ToString();
    live = std::move(*recovered);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    px::Status status = live->Append(LiveRecord(fixture.log, k++));
    PX_CHECK(status.ok()) << status.ToString();
  }
  state.SetLabel(mode == 0   ? "no-wal"
                 : mode == 1 ? "fsync=none"
                 : mode == 2 ? "fsync=every64"
                             : "fsync=batch");
}
BENCHMARK(BM_WalAppendOverhead)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Iterations(256)->Unit(benchmark::kMicrosecond);

/// Cold-start crash recovery: LiveEngine::Recover over a checkpointed
/// base plus a WAL tail of range(0) single-record batches. The pristine
/// directory pair is prepared once outside timing; each iteration
/// restores it (timing paused) and times Recover alone — checkpoint
/// load + CRC verification, tail replay through the validated append
/// path, and the fold-into-a-served-snapshot rotation.
void BM_RecoveryTime(benchmark::State& state) {
  namespace stdfs = std::filesystem;
  const MicroFixture& fixture = MicroFixture::Get();
  const std::size_t tail_batches = static_cast<std::size_t>(state.range(0));
  px::EngineOptions options;
  options.sim_but_diff.threads = 1;
  const stdfs::path root = BenchScratchDir("recovery");
  const stdfs::path pristine = root / "pristine";
  {
    px::DurabilityOptions durability;
    durability.wal_dir = (pristine / "wal").string();
    durability.checkpoint_dir = (pristine / "ckpt").string();
    auto engine = px::LiveEngine::Recover(fixture.log, durability, options,
                                          px::RotationPolicy{});
    PX_CHECK(engine.ok()) << engine.status().ToString();
    for (std::size_t k = 0; k < 32; ++k) {
      PX_CHECK((*engine)->Append(LiveRecord(fixture.log, k)).ok());
    }
    PX_CHECK((*engine)->Rotate().ok());  // the checkpoint covers these
    for (std::size_t k = 32; k < 32 + tail_batches; ++k) {
      PX_CHECK((*engine)->Append(LiveRecord(fixture.log, k)).ok());
    }
  }
  px::RecoveryStats stats;
  const stdfs::path scratch = root / "scratch";
  for (auto _ : state) {
    state.PauseTiming();
    stdfs::remove_all(scratch);
    stdfs::copy(pristine, scratch, stdfs::copy_options::recursive);
    px::DurabilityOptions durability;
    durability.wal_dir = (scratch / "wal").string();
    durability.checkpoint_dir = (scratch / "ckpt").string();
    state.ResumeTiming();
    auto engine = px::LiveEngine::Recover(fixture.log, durability, options,
                                          px::RotationPolicy{}, &stats);
    PX_CHECK(engine.ok()) << engine.status().ToString();
    benchmark::DoNotOptimize(engine);
  }
  state.SetLabel(px::StrFormat(
      "ckpt_rows=%llu replayed=%llu",
      static_cast<unsigned long long>(stats.checkpoint_rows),
      static_cast<unsigned long long>(stats.replayed_batches)));
}
BENCHMARK(BM_RecoveryTime)->Arg(8)->Arg(64)->Iterations(16)
    ->Unit(benchmark::kMillisecond);

/// Incremental promotion vs cold rebuild at several delta fractions:
/// args are {delta_percent, incremental}. One iteration builds the grown
/// snapshot (columns + resident pair plane) either by extending the warm
/// base generation (LogSnapshot extension ctor + Acquire seeded with the
/// base plane) or from scratch (cold ctor + Acquire). The acceptance bound is >= 2x at a
/// <= 25% delta; both paths are bitwise identical (the
/// PromotionEquivalence suites pin that).
void BM_SnapshotPromotion(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const std::size_t delta_percent =
      static_cast<std::size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  const px::ExecutionLog& full = fixture.log;
  const std::size_t base_rows =
      full.size() - full.size() * delta_percent / 100;
  px::ExecutionLog base_log(full.schema());
  std::vector<px::ExecutionRecord> delta;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (i < base_rows) {
      PX_CHECK(base_log.Add(full.at(i)).ok());
    } else {
      delta.push_back(full.at(i));
    }
  }
  const double sim = px::SimButDiffOptions{}.pair.sim_fraction;
  const std::size_t budget =
      px::PairCodeStore::BytesNeeded(full.size(), full.schema().size());
  const px::LogSnapshot base(base_log);
  const px::TilePool* base_plane = base.pair_codes().Acquire(
      sim, px::PairCodeStore::BytesNeeded(base_rows, full.schema().size()),
      1);
  PX_CHECK(base_plane != nullptr);

  for (auto _ : state) {
    if (incremental) {
      const px::LogSnapshot grown(base, delta);
      benchmark::DoNotOptimize(
          grown.pair_codes().Acquire(sim, budget, 1, base_plane));
    } else {
      const px::LogSnapshot cold(full);
      benchmark::DoNotOptimize(cold.pair_codes().Acquire(sim, budget, 1));
    }
  }
  state.SetLabel(px::StrFormat("delta=%zu%% %s", delta_percent,
                               incremental ? "incremental" : "cold"));
}
BENCHMARK(BM_SnapshotPromotion)
    ->Args({5, 1})->Args({5, 0})
    ->Args({25, 1})->Args({25, 0})
    ->Args({50, 1})->Args({50, 0})
    ->Unit(benchmark::kMillisecond);

/// The pair-code plane fill alone on the ~1.9k-row task log, one thread:
/// one iteration constructs a plane-sized TilePool (its frame arena
/// included) and fills it. Arg 0 = cold fill; arg 1 = seeded fill of a
/// log 10% larger than the seed plane's (the seed's rows are the log's
/// prefix, as after a promotion). The columns and the seed are built
/// once outside the timer.
void BM_PlaneFill(benchmark::State& state) {
  const px::ExecutionLog& full = TaskLevelLog();
  const bool seeded = state.range(0) != 0;
  const std::size_t base_rows = full.size() * 10 / 11;
  px::ExecutionLog base_log(full.schema());
  for (std::size_t i = 0; i < base_rows; ++i) {
    PX_CHECK(base_log.Add(full.at(i)).ok());
  }
  const double sim = px::SimButDiffOptions{}.pair.sim_fraction;
  const px::ColumnarLog columns(full);
  const px::ColumnarLog base_columns(base_log);
  px::TilePool base(&base_columns, sim, base_columns.rows());
  base.Fill(1);
  for (auto _ : state) {
    px::TilePool plane(&columns, sim, columns.rows());
    plane.Fill(1, seeded ? &base : nullptr);
    benchmark::DoNotOptimize(plane.Fetch(columns.rows() - 1));
    benchmark::ClobberMemory();
  }
  state.SetLabel(px::StrFormat("rows=%zu %s", columns.rows(),
                               seeded ? "seeded" : "cold"));
}
BENCHMARK(BM_PlaneFill)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One durable checkpoint round trip of the ~1.9k-row task log: one
/// iteration is SnapshotCheckpoint::Write (encode, write, fsync, rename,
/// directory fsync, sweep of the previous generation) plus LoadLatest
/// (read, verify, rebuild the log) in a temp directory.
void BM_CheckpointWriteLoad(benchmark::State& state) {
  const px::ExecutionLog& log = TaskLevelLog();
  const px::ColumnarLog columns(log);
  const std::string dir = BenchScratchDir("checkpoint");
  std::uint64_t generation = 0;
  for (auto _ : state) {
    generation += 1;
    PX_CHECK(
        px::SnapshotCheckpoint::Write(dir, columns, generation, generation)
            .ok());
    auto loaded = px::SnapshotCheckpoint::LoadLatest(dir);
    PX_CHECK(loaded.ok()) << loaded.status().ToString();
    PX_CHECK(loaded->log.size() == log.size());
    benchmark::DoNotOptimize(loaded);
  }
  std::filesystem::remove_all(dir);
  state.SetLabel(px::StrFormat("rows=%zu", log.size()));
}
BENCHMARK(BM_CheckpointWriteLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
