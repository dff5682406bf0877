// Figure 4(a): relevance of PerfXplain-generated despite clauses as a
// function of their width (§6.4), for both evaluation queries posed with
// their despite clause removed. Width 0 is the empty despite clause.
// Expected shape: relevance climbs steeply within the first 2-3 atoms and
// saturates near 1.0 for query 1 and around 0.7+ for query 2.

#include <cstdio>
#include <utility>

#include "core/metrics.h"
#include "harness.h"

namespace px = perfxplain;
using px::bench::Fixture;
using px::bench::HarnessOptions;
using px::bench::Series;

namespace {

std::vector<Series> RelevanceByWidth(Fixture& fixture,
                                     const HarnessOptions& options,
                                     const std::vector<std::size_t>& widths) {
  fixture.SetQuery(px::bench::StripDespite(fixture.query()));
  std::vector<Series> series(widths.size());
  for (int run = 0; run < options.runs; ++run) {
    const Fixture::SplitLogs logs = fixture.Split(run);
    const px::Engine engine(logs.train);
    px::Query bound = fixture.query();
    if (!bound.Bind(engine.pair_schema()).ok()) continue;
    auto prepared = engine.Prepare(fixture.query());
    for (std::size_t w = 0; w < widths.size(); ++w) {
      px::Predicate generated;
      if (widths[w] > 0) {
        if (!prepared.ok()) continue;
        auto despite = engine.GenerateDespite(*prepared, widths[w]);
        if (!despite.ok()) continue;
        generated = std::move(despite).value();
        if (!generated.Bind(engine.pair_schema()).ok()) continue;
      }
      // Relevance of the despite clause alone: no because clause.
      px::Explanation despite_only;
      despite_only.despite = std::move(generated);
      series[w].Add(px::EvaluateExplanation(logs.test, engine.pair_schema(),
                                            bound, despite_only,
                                            px::PairFeatureOptions())
                        .relevance);
    }
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options = px::bench::ParseHarnessArgs(argc, argv);
  px::bench::PrintHeader(
      "Figure 4(a): relevance of generated despite clauses vs width",
      "both queries posed without a despite clause; relevance over the "
      "test log (" +
          px::bench::MeanStddevOverRuns(options) + ")");
  const std::vector<std::size_t> widths = {0, 1, 2, 3, 4, 5};

  Fixture task_fixture = Fixture::TaskLevel(options);
  const auto q1 = RelevanceByWidth(task_fixture, options, widths);
  Fixture job_fixture = Fixture::JobLevel(options);
  const auto q2 = RelevanceByWidth(job_fixture, options, widths);

  px::bench::PrintRow(
      {"width", "WhyLastTaskFaster", "WhySlowerDespiteSameNumInst"}, 30);
  for (std::size_t w = 0; w < widths.size(); ++w) {
    px::bench::PrintRow({std::to_string(widths[w]), q1[w].ToString(),
                         q2[w].ToString()},
                        30);
  }
  return 0;
}
