// Figure 4(c): precision of PerfXplain explanations under the three
// feature-set levels of §6.8, for WhySlowerDespiteSameNumInstances.
//   level 1: isSame features only
//   level 2: + compare and diff features
//   level 3: + base features
// Expected shape: level 1 trails by a clear margin; levels 2 and 3 are
// similar, with level 3 pulling slightly ahead at width 3 (where the base
// feature "numinstances <= ..." becomes available).

#include <cstdio>

#include "harness.h"

namespace px = perfxplain;
using px::bench::Fixture;
using px::bench::HarnessOptions;
using px::bench::Series;

int main(int argc, char** argv) {
  HarnessOptions options = px::bench::ParseHarnessArgs(argc, argv);
  px::bench::PrintHeader(
      "Figure 4(c): precision vs width per feature level, "
      "WhySlowerDespiteSameNumInstances",
      "PerfXplain restricted to feature levels 1-3 (" +
          px::bench::MeanStddevOverRuns(options) + ")");
  Fixture fixture = Fixture::JobLevel(options);

  const std::vector<px::FeatureLevel> levels = {px::FeatureLevel::kLevel1,
                                                px::FeatureLevel::kLevel2,
                                                px::FeatureLevel::kLevel3};
  px::bench::PrintRow({"width", "level 1", "level 2", "level 3"});
  for (std::size_t width : {1, 2, 3, 4, 5}) {
    std::vector<Series> series(levels.size());
    for (int run = 0; run < options.runs; ++run) {
      const Fixture::SplitLogs logs = fixture.Split(run);
      for (std::size_t l = 0; l < levels.size(); ++l) {
        px::EngineOptions engine_options;
        engine_options.explainer.level = levels[l];
        auto metrics =
            px::bench::RunOnce(fixture, logs, px::Technique::kPerfXplain,
                               width, engine_options);
        if (metrics.has_value()) {
          series[l].Add(metrics->precision);
        }
      }
    }
    std::vector<std::string> row = {std::to_string(width)};
    for (auto& s : series) row.push_back(s.ToString());
    px::bench::PrintRow(row);
  }
  return 0;
}
