#include "core/metrics.h"

#include <vector>

#include "pxql/compiled_predicate.h"

namespace perfxplain {

ExplanationMetrics EvaluateExplanation(const ExecutionLog& log,
                                       const PairSchema& schema,
                                       const Query& bound_query,
                                       const Explanation& explanation,
                                       const PairFeatureOptions& options,
                                       const EnumerationOptions&
                                           enumeration) {
  return EvaluateExplanation(ColumnarLog(log), schema, bound_query,
                             explanation, options, enumeration);
}

ExplanationMetrics EvaluateExplanation(const ColumnarLog& columns,
                                       const PairSchema& schema,
                                       const Query& bound_query,
                                       const Explanation& explanation,
                                       const PairFeatureOptions& options,
                                       const EnumerationOptions&
                                           enumeration) {
  // Per §4.2 of the paper, all three probabilities are measured over the
  // pairs *related* to the query — those satisfying des AND (obs OR exp)
  // (Definition 7). Pairs exhibiting some third behavior (neither observed
  // nor expected) are not part of the population.
  const CompiledQuery query =
      CompiledQuery::Compile(bound_query, schema, columns);
  const CompiledPredicate despite =
      CompiledPredicate::Compile(explanation.despite, schema, columns);
  const CompiledPredicate because =
      CompiledPredicate::Compile(explanation.because, schema, columns);
  const double f = options.sim_fraction;

  struct Counts {
    std::size_t pairs_despite = 0;
    std::size_t pairs_despite_exp = 0;
    std::size_t pairs_because = 0;
    std::size_t pairs_because_obs = 0;
  };
  std::vector<Counts> partials;
  // Selection-pruned: pairs failing the query's despite program are
  // unrelated and touch no counter, so the metrics are identical.
  const CandidatePairs candidates =
      SelectCandidatePairs(query, columns.rows(), f, enumeration);
  ScanCandidatePairs(
      candidates.selection, enumeration, partials,
      [&](Counts& local, std::size_t i, std::size_t j) {
        const PairLabel label =
            ClassifyPairCompiled(candidates.query, i, j, f);
        if (label == PairLabel::kUnrelated) return;
        if (!despite.Eval(i, j, f)) return;
        ++local.pairs_despite;
        if (label == PairLabel::kExpected) {
          ++local.pairs_despite_exp;
        }
        if (because.Eval(i, j, f)) {
          ++local.pairs_because;
          if (label == PairLabel::kObserved) {
            ++local.pairs_because_obs;
          }
        }
      });

  ExplanationMetrics metrics;
  for (const Counts& local : partials) {
    metrics.pairs_despite += local.pairs_despite;
    metrics.pairs_despite_exp += local.pairs_despite_exp;
    metrics.pairs_because += local.pairs_because;
    metrics.pairs_because_obs += local.pairs_because_obs;
  }
  if (metrics.pairs_despite > 0) {
    metrics.relevance = static_cast<double>(metrics.pairs_despite_exp) /
                        static_cast<double>(metrics.pairs_despite);
    metrics.generality = static_cast<double>(metrics.pairs_because) /
                         static_cast<double>(metrics.pairs_despite);
  }
  if (metrics.pairs_because > 0) {
    metrics.precision = static_cast<double>(metrics.pairs_because_obs) /
                        static_cast<double>(metrics.pairs_because);
  }
  return metrics;
}

bool IsApplicable(const Explanation& explanation, const PairSchema& schema,
                  const ExecutionRecord& first, const ExecutionRecord& second,
                  const PairFeatureOptions& options) {
  // Build a two-row columnar log of just this (possibly ad-hoc) pair and
  // compile both clauses against it: compile-time always-false resolution
  // (constants absent from the two records' dictionary, kind mismatches)
  // is correct here because the evaluated pair IS the whole log.
  const ColumnarLog columns(schema.raw(), {first, second});
  const CompiledPredicate despite =
      CompiledPredicate::Compile(explanation.despite, schema, columns);
  if (!despite.Eval(0, 1, options.sim_fraction)) return false;
  const CompiledPredicate because =
      CompiledPredicate::Compile(explanation.because, schema, columns);
  return because.Eval(0, 1, options.sim_fraction);
}

}  // namespace perfxplain
