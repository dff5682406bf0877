#ifndef PERFXPLAIN_CORE_RULE_OF_THUMB_H_
#define PERFXPLAIN_CORE_RULE_OF_THUMB_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/explanation.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "features/pair_feature_kernel.h"
#include "ml/relief.h"
#include "pxql/query.h"

namespace perfxplain {

/// Options of the RuleOfThumb baseline.
struct RuleOfThumbOptions {
  ReliefOptions relief;
  PairFeatureOptions pair;
  std::uint64_t seed = 29;
};

/// The RuleOfThumb baseline (§5.1): a one-time RReliefF pass ranks raw
/// features by their impact on duration in general; a query is then
/// answered with the top-w important features on which the pair of
/// interest *disagrees*, as `f_isSame = F` atoms. The technique ignores
/// the PXQL query entirely (beyond the pair of interest), which is exactly
/// the weakness the evaluation exposes.
///
/// Both the RReliefF ranking pass and the per-query disagreement test run
/// on the columnar engine (double arrays and interner codes instead of
/// Values).
class RuleOfThumb {
 public:
  /// Ranks features once over `columns`, which must outlive this object
  /// (the Engine passes its snapshot's replica, so all three techniques
  /// scan one).
  RuleOfThumb(RuleOfThumbOptions options, const ColumnarLog* columns);

  /// Feature ranking (raw-schema indexes, most important first).
  const std::vector<std::size_t>& ranking() const { return ranking_; }

  /// Builds the width-w explanation for a query Engine::Prepare bound and
  /// resolved to its pair of interest. The per-query part is O(k);
  /// thread-safe over the immutable ranking.
  Result<Explanation> ExplainPrepared(const Query& bound,
                                      std::size_t poi_first,
                                      std::size_t poi_second,
                                      std::size_t width) const;

 private:
  RuleOfThumbOptions options_;
  PairSchema schema_;
  const ColumnarLog* columns_;
  std::vector<std::size_t> ranking_;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_RULE_OF_THUMB_H_
