// Figure 3(a): precision vs. explanation width for the WhyLastTaskFaster
// query (task level), comparing PerfXplain against RuleOfThumb and
// SimButDiff.
//
// The query asks why the last map task on an instance ran faster than an
// earlier task on the same instance even though both processed one block.
// The paper's answer: lighter system load (the instance was no longer
// running two concurrent tasks). Expected shape: PerfXplain and RuleOfThumb
// reach high precision (they often pick the same load-difference
// explanation); SimButDiff trails by picking well-grounded but unspecific
// network features.

#include <cstdio>

#include "harness.h"

namespace px = perfxplain;
using px::bench::Fixture;
using px::bench::HarnessOptions;
using px::bench::Series;

int main(int argc, char** argv) {
  HarnessOptions options = px::bench::ParseHarnessArgs(argc, argv);
  px::bench::PrintHeader(
      "Figure 3(a): WhyLastTaskFaster, precision vs width",
      "precision of the explanation over the held-out test log (" +
          px::bench::MeanStddevOverRuns(options) + ")");
  Fixture fixture = Fixture::TaskLevel(options);
  std::printf("task log: %zu map tasks; pair of interest: %s (faster, later "
              "wave) vs %s\n\n",
              fixture.full_log().size(), fixture.poi_first_id().c_str(),
              fixture.poi_second_id().c_str());

  const std::vector<px::Technique> techniques = {
      px::Technique::kPerfXplain, px::Technique::kRuleOfThumb,
      px::Technique::kSimButDiff};
  const std::vector<std::size_t> widths = {0, 1, 2, 3, 4, 5};

  px::bench::PrintRow({"width", "PerfXplain", "RuleOfThumb", "SimButDiff"});
  std::string sample_explanation;
  for (std::size_t width : widths) {
    std::vector<Series> series(techniques.size());
    for (int run = 0; run < options.runs; ++run) {
      const Fixture::SplitLogs logs = fixture.Split(run);
      for (std::size_t t = 0; t < techniques.size(); ++t) {
        auto metrics = px::bench::RunOnce(fixture, logs, techniques[t], width);
        if (metrics.has_value()) {
          series[t].Add(metrics->precision);
        }
      }
      if (width == 3 && run == 0) {
        const px::Engine engine(logs.train);
        auto prepared = engine.Prepare(fixture.query());
        px::ExplainRequest request;
        request.width = width;
        auto response = prepared.ok() ? engine.Explain(*prepared, request)
                                      : prepared.status();
        if (response.ok()) {
          sample_explanation = response->explanation.ToString();
        }
      }
    }
    std::vector<std::string> row = {std::to_string(width)};
    for (auto& s : series) row.push_back(s.ToString());
    px::bench::PrintRow(row);
  }
  std::printf("\nsample width-3 PerfXplain explanation (run 0):\n%s\n",
              sample_explanation.c_str());
  return 0;
}
