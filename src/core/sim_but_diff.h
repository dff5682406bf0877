#ifndef PERFXPLAIN_CORE_SIM_BUT_DIFF_H_
#define PERFXPLAIN_CORE_SIM_BUT_DIFF_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/pair_enumeration.h"
#include "core/explanation.h"
#include "features/pair_code_store.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "pxql/compiled_predicate.h"
#include "pxql/query.h"

namespace perfxplain {

/// Options of the SimButDiff baseline (Algorithm 2).
struct SimButDiffOptions {
  /// Similarity threshold s: a training pair is "similar" to the pair of
  /// interest when it agrees on at least s * k of the k isSame features
  /// (the paper uses 0.9).
  double similarity_threshold = 0.9;
  PairFeatureOptions pair;
  /// Worker threads for the columnar pair enumeration (0 = process
  /// default). Thread count never changes any result: per-stripe tallies
  /// are integer sums merged in row order.
  int threads = 0;
  /// Memory budget of the snapshot-resident PairCodeStore (set through
  /// EngineOptions::sim_but_diff). A full plane costs
  /// PairCodeStore::BytesNeeded(n, k) = n² · ceil(k/32) · 8 ≈ n² · k/4
  /// bytes and is filled whole when it fits. A budget between one row
  /// tile (TilePool::TileBytes = n · ceil(k/32) · 8) and a plane buys
  /// that many row-tile frames instead: the first rows a scan touches
  /// keep their tiles, later rows stream. Only a budget under one tile
  /// (or a baseline built without a store) leaves every pair on the
  /// streaming fused pack-and-compare. Every budget is bitwise identical
  /// — it only moves work, never results. 0 disables residency outright.
  std::size_t pair_code_budget_bytes = std::size_t{256} << 20;
};

/// The SimButDiff baseline (§5.2, Algorithm 2): restrict training examples
/// to the isSame features, keep pairs similar to the pair of interest, and
/// for each feature run a what-if analysis — among similar pairs that
/// *disagree* with the pair of interest on the feature, what fraction
/// performed as expected? The top-w features by that score, asserted at the
/// pair's own values, form the explanation.
///
/// The pair scan runs on the columnar engine: the query is compiled to
/// flat predicate programs and the agreement test runs on packed pair
/// codes — the k isSame codes of a pair stored 2 bits/feature in uint64
/// words, compared against the pair of interest with XOR + mask +
/// popcount kernels (kernel::ScanPairAgainstPoi) instead of k per-feature
/// branches — so no Value is materialized while enumerating.
///
/// There is one scan, ExplainPrepared: one query shape and any number of
/// pairs of interest. Engine::Explain runs it for one pair,
/// Engine::ExplainBatch once per group of same-shape requests; both get
/// the despite clause's candidate-pair pruning and the same per-row tile
/// and streaming kernels.
class SimButDiff {
 public:
  /// `columns` must outlive this object (the Engine passes its
  /// snapshot's, so all three techniques scan one replica). When `store`
  /// is non-null it must be the PairCodeStore of `columns` (the Engine
  /// passes its snapshot's): scans then read the snapshot-resident tiles
  /// of the store's TilePool — the first acquisition of a plane fills it
  /// once, every later sequential query skips packing entirely — subject
  /// to SimButDiffOptions::pair_code_budget_bytes. A null store keeps the
  /// streaming fused pack-and-compare.
  SimButDiff(SimButDiffOptions options, const ColumnarLog* columns,
             const PairCodeStore* store = nullptr);

  /// The columnar replica every scan of this baseline reads.
  const ColumnarLog& columns() const { return *columns_; }

  /// One pair of interest of a scan (row indexes) and the width of its
  /// explanation.
  struct PairOfInterest {
    std::size_t first = 0;
    std::size_t second = 0;
    std::size_t width = 3;
  };

  /// Answers a query Engine::Prepare bound, validated and compiled
  /// (`compiled` against this baseline's columns) for every pair in
  /// `pois`, in ONE pass over the despite clause's candidate pairs.
  /// Result r is bitwise identical to a call with {pois[r]} alone, so
  /// `bound` may stand for any query of the same shape (structurally
  /// identical despite/observed/expected). Per candidate first row:
  ///  - a row with a tile (plane or pool frame) runs the branchless
  ///    similarity filter against each pair of interest and classifies
  ///    only that pair's similar partners;
  ///  - a streamed row classifies each partner once; one pair of interest
  ///    takes the fused early-abandoning pack-and-compare, several share
  ///    one packing of the partner's codes.
  /// `enumeration` supplies the worker-thread count (0 = process default)
  /// and the pruning switch — neither changes any result.
  std::vector<Result<Explanation>> ExplainPrepared(
      const Query& bound, const CompiledQuery& compiled,
      const std::vector<PairOfInterest>& pois,
      const EnumerationOptions& enumeration) const;

 private:
  /// The one tile source of every scan: the store's plane (filled on
  /// `threads` stripes) when the budget fits one, else its fractional
  /// pool, else nullptr — every row streams.
  TilePool* AcquireTiles(int threads) const;

  SimButDiffOptions options_;
  PairSchema schema_;
  const ColumnarLog* columns_;
  const PairCodeStore* store_;  ///< may be null: streaming pack only
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_SIM_BUT_DIFF_H_
