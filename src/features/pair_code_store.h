#ifndef PERFXPLAIN_FEATURES_PAIR_CODE_STORE_H_
#define PERFXPLAIN_FEATURES_PAIR_CODE_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "features/tile_pool.h"
#include "log/columnar.h"

namespace perfxplain {

/// A snapshot-resident cache of the ordered pairs' packed 2-bit isSame
/// codes, so sequential SimButDiff queries skip the per-pair packing and
/// run pure XOR + mask + popcount over resident words. One store belongs
/// to one immutable ColumnarLog (the LogSnapshot owns it next to the
/// columns) and hands out TilePools — row-tile frame arenas — shared
/// read-only by every PreparedQuery and worker thread.
///
/// A budget buys frames of one row tile each (TilePool::TileBytes = n ·
/// ceil(k/32) · 8 bytes):
///  - a whole plane (n² · ceil(k/32) · 8 ≈ n² · k/4 bytes; the diagonal is
///    stored too, keeping addressing branch-free) buys a pool with a frame
///    per row, filled eagerly on acquisition (Acquire);
///  - between one tile and a plane, a pool of the frames the budget buys,
///    filled on first touch while frames last, cold rows streamed
///    (AcquireTilePool);
///  - under one tile, nothing: every row streams
///    (SimButDiffOptions::pair_code_budget_bytes; 0 is the degenerate
///    case).
/// The budget test depends only on (rows, features, max_bytes), so a given
/// caller always takes the same path.
///
/// isSame codes depend on the similarity fraction (numeric features), so
/// pools are keyed by the exact double and the frame count; engines
/// sharing a snapshot under different fractions or budgets each get their
/// own. In practice every engine over one snapshot runs one fraction and
/// budget, and the registry holds one pool.
///
/// Thread safety: every member is const and safe from any number of
/// threads. The pool registry is the store's one mutex-guarded member and
/// is annotated for Clang Thread Safety Analysis
/// (common/thread_annotations.h); the pools synchronize themselves.
class PairCodeStore {
 public:
  /// `columns` must outlive the store (the LogSnapshot owns both).
  explicit PairCodeStore(const ColumnarLog* columns);

  PairCodeStore(const PairCodeStore&) = delete;
  PairCodeStore& operator=(const PairCodeStore&) = delete;

  /// Bytes one plane of a (rows, features) log occupies once built — the
  /// budget formula callers compare against their cap.
  static std::size_t BytesNeeded(std::size_t rows, std::size_t features);

  /// Bytes a plane of this store's log occupies.
  std::size_t bytes_per_plane() const;

  /// Bytes the store would actually hold resident under `max_bytes`: the
  /// whole plane when it fits, otherwise the tile-pool frames the budget
  /// buys — min(rows, floor(max_bytes / TilePool::TileBytes)) frames of
  /// one row tile each, 0 when the budget buys no frame (pure
  /// streaming). Admission control charges this: what a request can
  /// cause to be allocated, never the plane a fractional budget will not
  /// build.
  std::size_t ResidentBytesFor(std::size_t max_bytes) const;

  /// The plane for `sim_fraction` — the pool with a frame per row — fully
  /// filled on return (`build_threads` row stripes, 0 = the process
  /// default; striping never changes the built words). With `seed`, the
  /// filled plane of the previous snapshot generation (same fraction, a
  /// row-prefix of this log), old-row tile prefixes are copied instead of
  /// packed (TilePool::Fill). Returns nullptr — and allocates nothing —
  /// when a plane exceeds `max_bytes`. An interrupted fill keeps the tiles
  /// it finished; the next Acquire completes them.
  TilePool* Acquire(double sim_fraction, std::size_t max_bytes,
                    int build_threads = 0,
                    const TilePool* seed = nullptr) const PX_EXCLUDES(mutex_);

  /// The pool serving `sim_fraction` under a budget between one tile and
  /// a plane: the frames `max_bytes` buys, empty on first acquisition and
  /// filled as queries fetch row tiles. Returns nullptr when the whole
  /// plane fits (callers take Acquire's plane instead) or when the budget
  /// buys no frame (callers stream) — so exactly one of the three paths
  /// applies to a given budget.
  TilePool* AcquireTilePool(double sim_fraction, std::size_t max_bytes) const
      PX_EXCLUDES(mutex_);

  /// The filled plane for `sim_fraction` if some earlier Acquire
  /// completed it, nullptr otherwise. Never builds.
  const TilePool* Peek(double sim_fraction) const PX_EXCLUDES(mutex_);

  /// True when Peek(sim_fraction) would return a plane.
  bool warm(double sim_fraction) const {
    return Peek(sim_fraction) != nullptr;
  }

  /// Number of planes filled so far. Callers bracketing a query with this
  /// counter learn whether the query completed a plane
  /// (ExplainResponse::pair_store_built).
  std::uint64_t build_count() const PX_EXCLUDES(mutex_);

  /// Bytes of every pool's frame arena.
  std::size_t resident_bytes() const PX_EXCLUDES(mutex_);

  /// Tile-pool counters summed over every pool (planes count nothing;
  /// see TilePool::hits/misses). ExplainResponse brackets these so a
  /// request reports the tile traffic it drove.
  std::uint64_t tile_hits() const PX_EXCLUDES(mutex_);
  std::uint64_t tile_misses() const PX_EXCLUDES(mutex_);

 private:
  /// Finds or creates the pool of (sim_fraction, frames). Entries are
  /// never erased (stable unique_ptrs), so the returned pool outlives the
  /// registry lock.
  TilePool* FindPool(double sim_fraction, std::size_t frames) const
      PX_EXCLUDES(mutex_);

  const ColumnarLog* columns_;
  mutable Mutex mutex_;  ///< guards the pool registry
  mutable std::vector<std::unique_ptr<TilePool>> pools_ PX_GUARDED_BY(mutex_);
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_FEATURES_PAIR_CODE_STORE_H_
