#include "core/rule_of_thumb.h"

#include "features/pair_feature_kernel.h"
#include "log/catalog.h"

namespace perfxplain {

namespace {

Result<Explanation> FinishExplanation(Explanation explanation) {
  if (explanation.because.is_true()) {
    return Status::FailedPrecondition(
        "the pair of interest agrees on every important feature; "
        "RuleOfThumb has no explanation");
  }
  return explanation;
}

}  // namespace

RuleOfThumb::RuleOfThumb(RuleOfThumbOptions options,
                         const ColumnarLog* columns)
    : options_(options),
      schema_(CheckedColumns(columns).schema()),
      columns_(columns) {
  const std::size_t target = schema_.raw().IndexOf(feature_names::kDuration);
  PX_CHECK_NE(target, Schema::kNotFound)
      << "log schema lacks a duration feature";
  Rng rng(options_.seed);
  ranking_ =
      RankFeaturesByImportance(*columns_, target, options_.relief, rng);
}

Result<Explanation> RuleOfThumb::ExplainPrepared(const Query& bound,
                                                 std::size_t poi_first,
                                                 std::size_t poi_second,
                                                 std::size_t width) const {
  const std::vector<bool> excluded = OutcomeRawFeatureMask(bound, schema_);
  const double sim = options_.pair.sim_fraction;

  Explanation explanation;
  for (std::size_t raw : ranking_) {
    if (explanation.because.width() >= width) break;
    if (excluded[raw]) continue;
    // Explain with the top-ranked features the two executions disagree on.
    if (kernel::IsSameCode(*columns_, raw, poi_first, poi_second, sim) !=
        kernel::kFalseCode) {
      continue;
    }
    const std::size_t is_same = schema_.IndexOf(PairFeatureKind::kIsSame, raw);
    ExplanationAtom atom;
    atom.atom = Atom::Bound(schema_, is_same, CompareOp::kEq,
                            pair_values::FalseValue());
    explanation.because.Append(atom.atom);
    explanation.because_trace.push_back(std::move(atom));
  }
  return FinishExplanation(std::move(explanation));
}

}  // namespace perfxplain
