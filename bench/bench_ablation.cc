// Ablation study of PerfXplain's design decisions (DESIGN.md §4), on the
// WhySlowerDespiteSameNumInstances query at width 3:
//
//   1. percentile-rank score normalization (Algorithm 1 lines 11-12) —
//      the paper reports that without it, generality "was not having
//      enough impact";
//   2. balanced sampling (§4.3) vs uniform sampling of related pairs;
//   3. the precision/generality blend weight w (paper: 0.8);
//   4. diversity-biased sampling (§4.3 future work): capping how many
//      pairs a single execution contributes.
//
// Each row reports test-log precision and generality (10 runs).

#include <cstdio>

#include "common/string_util.h"
#include "harness.h"

namespace px = perfxplain;
using px::bench::Fixture;
using px::bench::HarnessOptions;
using px::bench::Series;

namespace {

void RunVariant(const Fixture& fixture, const HarnessOptions& options,
                const char* label, const px::EngineOptions& variant) {
  Series precision;
  Series generality;
  for (int run = 0; run < options.runs; ++run) {
    const Fixture::SplitLogs logs = fixture.Split(run);
    auto metrics = px::bench::RunOnce(fixture, logs,
                                      px::Technique::kPerfXplain, 3, variant);
    if (metrics.has_value()) {
      precision.Add(metrics->precision);
      generality.Add(metrics->generality);
    }
  }
  px::bench::PrintRow({label, precision.ToString(), generality.ToString()},
                      40);
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options = px::bench::ParseHarnessArgs(argc, argv);
  px::bench::PrintHeader(
      "Ablation: PerfXplain design decisions "
      "(WhySlowerDespiteSameNumInstances, width 3)",
      "test-log precision and generality, " +
          px::bench::MeanStddevOverRuns(options));
  Fixture fixture = Fixture::JobLevel(options);

  px::bench::PrintRow({"variant", "precision", "generality"}, 40);

  px::EngineOptions baseline;
  RunVariant(fixture, options, "baseline (paper settings)", baseline);

  px::EngineOptions no_normalization;
  no_normalization.explainer.normalize_scores = false;
  RunVariant(fixture, options, "no score normalization", no_normalization);

  px::EngineOptions uniform_sampling;
  uniform_sampling.explainer.balanced_sampling = false;
  RunVariant(fixture, options, "uniform (unbalanced) sampling",
             uniform_sampling);

  for (double weight : {1.0, 0.5}) {
    px::EngineOptions blend;
    blend.explainer.precision_weight = weight;
    RunVariant(fixture, options,
               px::StrFormat("precision weight w = %.1f", weight).c_str(),
               blend);
  }

  for (std::size_t cap : {4u, 16u}) {
    px::EngineOptions diversity;
    diversity.explainer.max_pairs_per_record = cap;
    RunVariant(
        fixture, options,
        px::StrFormat("diversity cap %zu pairs/record", cap).c_str(),
        diversity);
  }

  std::printf(
      "\nreading: the paper's settings should sit at (high precision, "
      "moderate generality); w=1.0 collapses generality; unbalanced "
      "sampling and disabled normalization each cost precision or "
      "generality; the diversity cap trades a little precision for "
      "broader, less redundant training evidence.\n");
  return 0;
}
