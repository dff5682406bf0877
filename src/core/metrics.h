#ifndef PERFXPLAIN_CORE_METRICS_H_
#define PERFXPLAIN_CORE_METRICS_H_

#include "core/explanation.h"
#include "core/pair_enumeration.h"
#include "features/pair_feature_kernel.h"
#include "log/columnar.h"
#include "log/execution_log.h"
#include "pxql/query.h"

namespace perfxplain {

/// Quality of one explanation against one log (Definitions 4-6), together
/// with the raw pair counts behind the conditional probabilities.
///
/// Following §4.2 of the paper, all three conditional probabilities are
/// measured over the pairs *related* to the query — those satisfying
/// des AND (obs OR exp), Definition 7 — so pairs exhibiting some third
/// behavior do not enter the population:
///   Rel(E) = P(exp | des' AND des AND (obs OR exp))
///   Pr(E)  = P(obs | bec AND des' AND des AND (obs OR exp))
///   Gen(E) = P(bec | des' AND des AND (obs OR exp))
struct ExplanationMetrics {
  double relevance = 0.0;
  double precision = 0.0;
  double generality = 0.0;

  std::size_t pairs_despite = 0;       ///< related pairs satisfying des'
  std::size_t pairs_despite_exp = 0;   ///< ... and exp
  std::size_t pairs_because = 0;       ///< related pairs with des' AND bec
  std::size_t pairs_because_obs = 0;   ///< ... and obs
};

/// Measures relevance, precision and generality of `explanation` for
/// `query` over every ordered pair of `columns` (the scan is row-striped
/// over `enumeration.threads` workers and pruned to the query's despite
/// candidates; neither changes the metrics). Predicates must already be
/// bound to `schema`. Probabilities conditioned on an empty set are 0.
/// The relevance of a despite clause alone (§6.4: Table 3, Figure 4a) is
/// the relevance of an explanation with that despite and no because.
ExplanationMetrics EvaluateExplanation(
    const ColumnarLog& columns, const PairSchema& schema,
    const Query& bound_query, const Explanation& explanation,
    const PairFeatureOptions& options, const EnumerationOptions& enumeration);

/// EvaluateExplanation over a log with no columnar replica yet (e.g. a
/// held-out test log): builds one for the call.
ExplanationMetrics EvaluateExplanation(
    const ExecutionLog& log, const PairSchema& schema,
    const Query& bound_query, const Explanation& explanation,
    const PairFeatureOptions& options,
    const EnumerationOptions& enumeration = {});

/// True when the explanation is applicable to the pair (Definition 3):
/// both clauses hold for (first, second). The records may be ad-hoc (from
/// different logs, or from none); evaluation compiles the clauses against a
/// two-row columnar log of just this pair — agreement with the reference
/// (missing values, NaN included) is pinned by tests/core/metrics_test.cc.
bool IsApplicable(const Explanation& explanation, const PairSchema& schema,
                  const ExecutionRecord& first, const ExecutionRecord& second,
                  const PairFeatureOptions& options);

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_METRICS_H_
