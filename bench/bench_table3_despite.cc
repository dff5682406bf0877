// Table 3: relevance of under-specified queries before and after PerfXplain
// generates a despite clause (§6.4).
//
// Both evaluation queries are posed with their despite clause removed; the
// table reports P(exp | true) versus P(exp | generated des') over the test
// log, averaged over 10 runs, for width-3 despite clauses. Expected shape:
// large relevance gains (the paper reports 0.49 -> 0.99 for query 1 and
// 0.24 -> 0.72 for query 2).

#include <cstdio>
#include <utility>

#include "core/metrics.h"
#include "harness.h"

namespace px = perfxplain;
using px::bench::Fixture;
using px::bench::HarnessOptions;
using px::bench::Series;

namespace {

void RunQuery(const char* name, Fixture& fixture,
              const HarnessOptions& options) {
  // Remove the user's despite clause (ids are preserved).
  fixture.SetQuery(px::bench::StripDespite(fixture.query()));

  Series before;
  Series after;
  std::string sample;
  for (int run = 0; run < options.runs; ++run) {
    const Fixture::SplitLogs logs = fixture.Split(run);
    const px::Engine engine(logs.train);
    auto prepared = engine.Prepare(fixture.query());
    if (!prepared.ok()) continue;
    auto despite = engine.GenerateDespite(*prepared);
    if (!despite.ok()) continue;

    px::Query bound = fixture.query();
    if (!bound.Bind(engine.pair_schema()).ok()) continue;
    px::Predicate generated = despite.value();
    if (!generated.Bind(engine.pair_schema()).ok()) continue;
    // Relevance of a despite clause alone: an explanation with no because.
    const auto relevance = [&](px::Predicate despite_ext) {
      px::Explanation despite_only;
      despite_only.despite = std::move(despite_ext);
      return px::EvaluateExplanation(logs.test, engine.pair_schema(), bound,
                                     despite_only, px::PairFeatureOptions())
          .relevance;
    };
    before.Add(relevance(px::Predicate::True()));
    after.Add(relevance(generated));
    if (run == 0) sample = generated.ToString();
  }
  px::bench::PrintRow({name, before.ToString(), after.ToString()}, 34);
  std::printf("  sample des' (run 0): %s\n", sample.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options = px::bench::ParseHarnessArgs(argc, argv);
  px::bench::PrintHeader(
      "Table 3: relevance with an empty vs. PerfXplain-generated despite "
      "clause (width 3)",
      "avg relevance over the test log, " +
          px::bench::MeanStddevOverRuns(options));
  px::bench::PrintRow({"query", "relevance before", "relevance after"}, 34);

  Fixture task_fixture = Fixture::TaskLevel(options);
  RunQuery("1 WhyLastTaskFaster", task_fixture, options);

  Fixture job_fixture = Fixture::JobLevel(options);
  RunQuery("2 WhySlowerDespiteSameNumInst", job_fixture, options);
  return 0;
}
