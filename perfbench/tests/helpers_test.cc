#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Range(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyondIt) {
  EXPECT_EQ(HighestTailPercentile(0), 0.0);
  EXPECT_EQ(HighestTailPercentile(19), 0.0);
  EXPECT_EQ(HighestTailPercentile(20), 50.0);
  EXPECT_EQ(HighestTailPercentile(39), 50.0);
  EXPECT_EQ(HighestTailPercentile(40), 75.0);
  EXPECT_EQ(HighestTailPercentile(99), 75.0);
  EXPECT_EQ(HighestTailPercentile(100), 90.0);
  EXPECT_EQ(HighestTailPercentile(999), 90.0);
  EXPECT_EQ(HighestTailPercentile(1000), 99.0);
  EXPECT_EQ(HighestTailPercentile(9999), 99.0);
  EXPECT_EQ(HighestTailPercentile(10000), 99.9);
}

TEST(PercentileRule, NearestRankPercentiles) {
  EXPECT_EQ(Percentile(Range(100), 50.0), 50.0);
  EXPECT_EQ(Percentile(Range(100), 90.0), 90.0);
  EXPECT_EQ(Percentile(Range(5), 50.0), 3.0);
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PercentileRule, SummaryReportsTheTailWithItsCount) {
  const LatencySummary few = Summarize(Range(99));
  EXPECT_EQ(few.count, 99u);
  EXPECT_EQ(few.tail_pct, 75.0);
  EXPECT_EQ(few.tail, 75.0);
  EXPECT_FALSE(few.p90.has_value());

  const LatencySummary enough = Summarize(Range(100));
  EXPECT_EQ(enough.count, 100u);
  EXPECT_EQ(enough.p50, 50.0);
  EXPECT_EQ(enough.tail_pct, 90.0);
  ASSERT_TRUE(enough.p90.has_value());
  EXPECT_EQ(*enough.p90, 90.0);
}

TEST(HostSpeed, TimingsScaleToTheNominalReference) {
  Timings timings;
  timings.Add(10.0, 3);
  timings.Add(20.0);
  ASSERT_EQ(timings.raw.size(), 2u);
  ASSERT_EQ(timings.reference_ms.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_GT(timings.reference_ms[i], 0.0);
    EXPECT_DOUBLE_EQ(timings.normalized[i],
                     timings.raw[i] *
                         std::pow(kNominalReferenceMs / timings.reference_ms[i],
                                  kHostSpeedExponent));
  }
}

TEST(Tracer, SpansNestAndShareTheRequestId) {
  Tracer tracer(true);
  const std::uint64_t request = tracer.NewRequest();
  {
    Tracer::Scope outer(tracer, "client.request", request);
    Tracer::Scope inner(tracer, "pxql.prepare");
  }
  tracer.set_enabled(false);
  { Tracer::Scope ignored(tracer, "core.scan"); }
  EXPECT_EQ(tracer.DurationsMs("client.request").size(), 1u);
  EXPECT_EQ(tracer.DurationsMs("pxql.prepare").size(), 1u);
  EXPECT_TRUE(tracer.DurationsMs("core.scan").empty());
  const std::string path =
      (std::filesystem::temp_directory_path() / "perfbench_trace_test.json")
          .string();
  ASSERT_TRUE(tracer.WriteJson(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  // The inner span closes first; its parent is the outer span (id 1) and
  // it inherits the request id.
  EXPECT_NE(text.str().find("\"name\":\"pxql.prepare\""), std::string::npos);
  EXPECT_NE(text.str().find("\"id\":2,\"parent\":1,\"request\":" +
                            std::to_string(request)),
            std::string::npos);
}

std::vector<std::string> Texts(const std::vector<Question>& questions) {
  std::vector<std::string> texts;
  for (const Question& q : questions) texts.push_back(q.pxql);
  return texts;
}

TEST(Inputs, ResidentRequestsAndRowsRepeatPerSeed) {
  const ExplainInputs a = MakeResidentInputs(5, 32);
  const ExplainInputs b = MakeResidentInputs(5, 32);
  const ExplainInputs c = MakeResidentInputs(6, 32);
  EXPECT_EQ(Texts(a.questions), Texts(b.questions));
  EXPECT_EQ(a.log.ToCsvText(), b.log.ToCsvText());
  EXPECT_NE(Texts(a.questions), Texts(c.questions));
  EXPECT_NE(a.log.ToCsvText(), c.log.ToCsvText());
  ASSERT_EQ(a.questions.size(), 32u);
  EXPECT_EQ(a.questions[0].technique, perfxplain::Technique::kPerfXplain);
  EXPECT_EQ(a.questions[1].technique, perfxplain::Technique::kSimButDiff);
}

TEST(Inputs, SpillQuestionsAreDistinctAndOneInFourSelective) {
  const ExplainInputs a = MakeSpillInputs(5, 32);
  EXPECT_EQ(a.log.size(), 2700u);
  std::size_t selective = 0;
  for (const Question& q : a.questions) selective += q.selective ? 1 : 0;
  EXPECT_EQ(selective, 8u);
  std::vector<std::string> texts = Texts(a.questions);
  std::sort(texts.begin(), texts.end());
  EXPECT_EQ(std::unique(texts.begin(), texts.end()), texts.end());
}

TEST(Inputs, IngestRecordBytesRepeatPerSeed) {
  const IngestInputs a = MakeIngestInputs(5, 100, 0.5, 40, 8);
  const IngestInputs b = MakeIngestInputs(5, 100, 0.5, 40, 8);
  const IngestInputs c = MakeIngestInputs(6, 100, 0.5, 40, 8);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].history, b.jobs[i].history);
    EXPECT_EQ(a.jobs[i].ganglia, b.jobs[i].ganglia);
  }
  EXPECT_EQ(a.seed_log.ToCsvText(), b.seed_log.ToCsvText());
  EXPECT_EQ(Texts(a.questions), Texts(b.questions));
  EXPECT_GE(a.ingest_records, 50u);
  // Appended one job per batch with a rotation every 40 staged records,
  // the stream ends with records staged: the crash leaves a WAL tail.
  std::size_t staged = 0;
  for (const RenderedJob& job : a.jobs) {
    staged += job.task_records;
    if (staged >= 40) staged = 0;
  }
  EXPECT_GT(staged, 0u);
  EXPECT_NE(a.seed_log.ToCsvText(), c.seed_log.ToCsvText());
  EXPECT_NE(a.jobs[0].history, c.jobs[0].history);
}

// Questions are kept only when they can be answered: a question that
// satisfies Definition 1 may still have no SimButDiff training pair
// similar to its pair of interest, or no RuleOfThumb explanation.
TEST(Inputs, ExplainQuestionsCarryTheAnswerOfAColdEngine) {
  const ExplainInputs inputs = MakeResidentInputs(5, 8);
  ASSERT_EQ(inputs.questions.size(), 8u);
  const perfxplain::Engine engine(
      inputs.log, EngineOptionsFor(kThreads, inputs.pair_code_budget_bytes));
  for (const Question& question : inputs.questions) {
    auto prepared = engine.PrepareText(question.pxql);
    ASSERT_TRUE(prepared.ok()) << question.pxql;
    auto response =
        engine.Explain(*prepared, MakeRequest(question.technique, kThreads));
    ASSERT_TRUE(response.ok()) << question.pxql;
    EXPECT_EQ(Canonical(response->explanation), question.answer);
  }
}

TEST(Inputs, IngestQuestionsAreAnsweredByEveryTechnique) {
  const IngestInputs inputs = MakeIngestInputs(5, 100, 0.5, 40, 8);
  ASSERT_FALSE(inputs.questions.empty());
  const perfxplain::Engine engine(inputs.seed_log,
                                  EngineOptionsFor(kThreads, 0));
  for (const Question& question : inputs.questions) {
    auto prepared = engine.PrepareText(question.pxql);
    ASSERT_TRUE(prepared.ok()) << question.pxql;
    for (perfxplain::Technique technique :
         {perfxplain::Technique::kPerfXplain,
          perfxplain::Technique::kSimButDiff,
          perfxplain::Technique::kRuleOfThumb}) {
      EXPECT_TRUE(
          engine.Explain(*prepared, MakeRequest(technique, kThreads)).ok())
          << perfxplain::TechniqueToString(technique) << ": " << question.pxql;
    }
  }
}

// Every workload checks, while it runs, that it still exercises its layer
// (explain-resident: no tile traffic; explain-spill: every SimButDiff
// request streams rows the tile budget cannot hold; ingest-live: every
// recovery replays WAL records) and counts a violation as a failure. A
// short run of each must come out correct.
class WorkloadGuards : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadGuards, ShortRunIsCorrect) {
  RunOptions options;
  options.workload = GetParam();
  options.seed = 3;
  options.seconds = 1;
  options.work_dir =
      (std::filesystem::temp_directory_path() / "perfbench_guard_test")
          .string();
  const RunResult result = RunWorkload(options);
  std::filesystem::remove_all(options.work_dir);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.attempted, 0u);
  for (const std::string& error : result.errors) ADD_FAILURE() << error;
  EXPECT_NE(result.metrics.ToString().find("\"setup_s\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadGuards,
                         ::testing::Values("explain-resident", "explain-spill",
                                           "ingest-live"));

}  // namespace
}  // namespace perfbench
