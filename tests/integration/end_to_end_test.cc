// Integration tests: simulator -> execution logs -> PXQL -> explanation ->
// metrics, exercising the two canonical evaluation queries of §6.2 on a
// reduced grid so the whole pipeline stays fast enough for CI.

#include <gtest/gtest.h>

#include <utility>

#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "log/catalog.h"
#include "pxql/parser.h"
#include "simulator/trace_generator.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::PrepareAndExplain;

/// Shared trace: a 36-job slice of the Table 2 grid. Generated once.
class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceOptions options;
    options.seed = 321;
    int id = 0;
    for (int instances : {1, 2, 4}) {
      for (double input_gb : {1.3, 2.6}) {
        for (double block_mb : {64.0, 256.0, 1024.0}) {
          for (const char* script :
               {"simple-filter.pig", "simple-groupby.pig"}) {
            JobConfig config;
            config.job_id = "job_" + std::to_string(id++);
            config.num_instances = instances;
            config.input_size_bytes = input_gb * 1024 * 1024 * 1024;
            config.block_size_bytes = block_mb * 1024 * 1024;
            config.pig_script = script;
            options.jobs.push_back(config);
          }
        }
      }
    }
    trace_ = new Trace(GenerateTrace(options).value());
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static Query BindAndLocate(const ExecutionLog& log, const std::string& text,
                             const std::string& finder_extra = "") {
    auto query = ParseQuery(text);
    PX_CHECK(query.ok()) << query.status().ToString();
    PairSchema schema(log.schema());
    Query bound = std::move(query).value();
    PX_CHECK(bound.Bind(schema).ok());
    Query finder = bound;
    if (!finder_extra.empty()) {
      auto extra = ParsePredicate(finder_extra);
      PX_CHECK(extra.ok());
      finder.despite = finder.despite.And(extra.value());
      PX_CHECK(finder.Bind(schema).ok());
    }
    auto poi = reference::FindPairOfInterest(log, finder);
    PX_CHECK(poi.ok()) << poi.status().ToString();
    bound.first_id = log.at(poi->first).id;
    bound.second_id = log.at(poi->second).id;
    return bound;
  }

  static Trace* trace_;
};

Trace* EndToEndTest::trace_ = nullptr;

TEST_F(EndToEndTest, WhySlowerQueryYieldsPreciseExplanation) {
  const Engine system(trace_->job_log);
  const Query query = BindAndLocate(
      trace_->job_log,
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM",
      "inputsize_compare = GT");
  auto explanation = PrepareAndExplain(system, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  auto metrics = system.EvaluateOn(system.log(), query, *explanation);
  ASSERT_TRUE(metrics.ok());
  // The explanation must beat the base rate by a clear margin.
  Explanation empty;
  auto base = system.EvaluateOn(system.log(), query, empty);
  ASSERT_TRUE(base.ok());
  EXPECT_GT(metrics->precision, base->precision + 0.1);
  EXPECT_GT(metrics->precision, 0.7);
}

TEST_F(EndToEndTest, WhyLastTaskFasterOnTaskLog) {
  // Restrict to map tasks of multi-wave jobs, as in the paper's setup.
  const Schema& schema = trace_->task_log.schema();
  const std::size_t f_type = schema.IndexOf(feature_names::kTaskType);
  const std::size_t f_maps = schema.IndexOf(feature_names::kNumMapTasks);
  const std::size_t f_instances =
      schema.IndexOf(feature_names::kNumInstances);
  ExecutionLog tasks = trace_->task_log.Filter(
      [&](const ExecutionRecord& record) {
        return record.values[f_type].nominal() == "map" &&
               record.values[f_maps].number() >=
                   3 * 2 * record.values[f_instances].number();
      });
  ASSERT_GT(tasks.size(), 50u);

  const Engine system(tasks);
  const Query query = BindAndLocate(
      tasks,
      "DESPITE jobID_isSame = T AND inputsize_compare = SIM AND "
      "hostname_isSame = T "
      "OBSERVED duration_compare = LT EXPECTED duration_compare = SIM",
      "wave_index_compare = GT AND avg_cpu_user_compare = LT");
  auto explanation = PrepareAndExplain(system, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  auto metrics = system.EvaluateOn(system.log(), query, *explanation);
  ASSERT_TRUE(metrics.ok());
  Explanation empty;
  auto base = system.EvaluateOn(system.log(), query, empty);
  ASSERT_TRUE(base.ok());
  EXPECT_GT(metrics->precision, base->precision + 0.15);
}

TEST_F(EndToEndTest, MotivatingScenarioBlockSizeStory) {
  // §2.1: same duration despite half the input; the explanation must be
  // applicable and more precise than the base rate.
  const Engine system(trace_->job_log);
  const Query query = BindAndLocate(
      trace_->job_log,
      "DESPITE inputsize_compare = LT "
      "OBSERVED duration_compare = SIM EXPECTED duration_compare = LT",
      "blocksize >= 512MB");
  auto explanation = PrepareAndExplain(system, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  auto metrics = system.EvaluateOn(system.log(), query, *explanation);
  ASSERT_TRUE(metrics.ok());
  Explanation empty;
  auto base = system.EvaluateOn(system.log(), query, empty);
  EXPECT_GT(metrics->precision, base->precision);
}

TEST_F(EndToEndTest, AllThreeTechniquesProduceApplicableExplanations) {
  const Engine system(trace_->job_log);
  const Query query = BindAndLocate(
      trace_->job_log,
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM",
      "inputsize_compare = GT");
  const std::size_t first = trace_->job_log.Find(query.first_id).value();
  const std::size_t second = trace_->job_log.Find(query.second_id).value();
  for (Technique technique :
       {Technique::kPerfXplain, Technique::kRuleOfThumb,
        Technique::kSimButDiff}) {
    ExplainRequest request;
    request.technique = technique;
    request.width = 3;
    auto explanation = PrepareAndExplain(system, query, request);
    ASSERT_TRUE(explanation.ok()) << TechniqueToString(technique);
    Explanation bound = *explanation;
    ASSERT_TRUE(bound.because.Bind(system.pair_schema()).ok());
    ASSERT_TRUE(bound.despite.Bind(system.pair_schema()).ok());
    EXPECT_TRUE(IsApplicable(bound, system.pair_schema(),
                             trace_->job_log.at(first),
                             trace_->job_log.at(second),
                             PairFeatureOptions()))
        << TechniqueToString(technique) << ": " << bound.ToString();
  }
}

TEST_F(EndToEndTest, CsvRoundTripPreservesExplanations) {
  // Persist the log, reload it, and verify the same query yields the same
  // explanation — the paper's workflow of analyzing a stored log.
  const std::string path = ::testing::TempDir() + "px_e2e_log.csv";
  ASSERT_TRUE(trace_->job_log.SaveCsv(path).ok());
  auto reloaded = ExecutionLog::LoadCsv(path);
  ASSERT_TRUE(reloaded.ok());

  const Query query = BindAndLocate(
      trace_->job_log,
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM");
  const Engine original(trace_->job_log);
  const Engine restored(std::move(reloaded).value());
  auto e1 = PrepareAndExplain(original, query);
  auto e2 = PrepareAndExplain(restored, query);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->because.ToString(), e2->because.ToString());
  std::remove(path.c_str());
}

TEST_F(EndToEndTest, OtherPerformanceMetricsAreQueryable) {
  // §8: "our current implementation considers only queries over job or
  // task runtimes but the approach can readily be applied to other
  // performance metrics." PXQL predicates are arbitrary, so asking why one
  // job *wrote far more output* works unchanged; the correct answer is the
  // script (filter keeps ~80% of its input, groupby collapses it).
  const Engine system(trace_->job_log);
  const Query query = BindAndLocate(
      trace_->job_log,
      "DESPITE inputsize_compare = SIM "
      "OBSERVED hdfs_bytes_written_compare = GT "
      "EXPECTED hdfs_bytes_written_compare = SIM",
      "pigscript_diff = (simple-filter.pig,simple-groupby.pig)");
  auto explanation = PrepareAndExplain(system, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  // The explanation must not cite the queried metric itself...
  for (const Atom& atom : explanation->because.atoms()) {
    EXPECT_EQ(atom.feature().find("hdfs_bytes_written"), std::string::npos)
        << atom.ToString();
  }
  // ... and must be highly precise: output volume is script-determined.
  auto metrics = system.EvaluateOn(system.log(), query, *explanation);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->precision, 0.9);
}

TEST_F(EndToEndTest, MissingValuesDoNotBreakExplanation) {
  // Knock holes into the log (a metric collector losing samples) and make
  // sure the whole pipeline still answers, with explanations that never
  // cite a feature as present for a pair where it is missing.
  ExecutionLog holey(trace_->job_log.schema());
  Rng rng(8);
  const std::size_t k = trace_->job_log.schema().size();
  const std::size_t f_duration =
      trace_->job_log.schema().IndexOf(feature_names::kDuration);
  for (const auto& record : trace_->job_log.records()) {
    ExecutionRecord copy = record;
    for (std::size_t f = 0; f < k; ++f) {
      if (f != f_duration && rng.Bernoulli(0.05)) {
        copy.values[f] = Value::Missing();
      }
    }
    PX_CHECK(holey.Add(copy).ok());
  }
  const Engine system(holey);
  const Query query = BindAndLocate(
      holey,
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM");
  auto explanation = PrepareAndExplain(system, query);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  auto metrics = system.EvaluateOn(system.log(), query, *explanation);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->precision, 0.5);
}

TEST_F(EndToEndTest, ExplanationTextRoundTripsThroughPxql) {
  // An emitted because clause is valid PXQL: parse it back, bind it, and
  // verify it evaluates identically over a sample of pairs.
  const Engine system(trace_->job_log);
  const Query query = BindAndLocate(
      trace_->job_log,
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM");
  auto explanation = PrepareAndExplain(system, query);
  ASSERT_TRUE(explanation.ok());
  auto reparsed = ParsePredicate(explanation->because.ToString());
  ASSERT_TRUE(reparsed.ok()) << explanation->because.ToString();
  Predicate bound = std::move(reparsed).value();
  ASSERT_TRUE(bound.Bind(system.pair_schema()).ok());
  const ExecutionLog& log = trace_->job_log;
  for (std::size_t i = 0; i < 20 && i + 1 < log.size(); ++i) {
    Predicate original = explanation->because;
    ASSERT_TRUE(original.Bind(system.pair_schema()).ok());
    EXPECT_EQ(
        reference::Holds(original, log.schema(), log.at(i), log.at(i + 1)),
        reference::Holds(bound, log.schema(), log.at(i), log.at(i + 1)))
        << i;
  }
}

TEST_F(EndToEndTest, AutoDespiteImprovesRelevanceOnJobQuery) {
  const Engine system(trace_->job_log);
  Query query = BindAndLocate(
      trace_->job_log,
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM",
      "numinstances_isSame = T AND pigscript_isSame = T AND "
      "inputsize_compare = GT");
  auto prepared = system.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto despite = system.GenerateDespite(*prepared);
  ASSERT_TRUE(despite.ok()) << despite.status().ToString();
  Query bound = query;
  ASSERT_TRUE(bound.Bind(system.pair_schema()).ok());
  Predicate generated = despite.value();
  ASSERT_TRUE(generated.Bind(system.pair_schema()).ok());
  // Relevance of a despite clause alone: an explanation with no because.
  const auto relevance = [&](Predicate despite) {
    Explanation despite_only;
    despite_only.despite = std::move(despite);
    return EvaluateExplanation(trace_->job_log, system.pair_schema(), bound,
                               despite_only, PairFeatureOptions())
        .relevance;
  };
  const double before = relevance(Predicate::True());
  const double after = relevance(generated);
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace perfxplain
