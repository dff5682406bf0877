#ifndef PERFXPLAIN_FEATURES_TILE_POOL_H_
#define PERFXPLAIN_FEATURES_TILE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "features/pair_feature_kernel.h"
#include "log/columnar.h"

namespace perfxplain {

/// The one home of the packed isSame pair codes: a fixed arena of
/// pair-code row-tile frames. One pool serves one (ColumnarLog,
/// similarity fraction) at a fixed frame count; each frame holds one
/// row's complete tile — the n packed isSame vectors of that row's
/// ordered pairs (i, 0..n-1), each ceil(k/32) contiguous words — so the
/// row-major pair scans read a row's tile strictly sequentially.
///
/// Frame lifecycle: a row's tile is built into a free frame on its first
/// Fetch and that frame is never reused, so a ready tile's address never
/// changes and looking it up takes no lock. Once every frame is taken,
/// Fetch returns nullptr for an unbuilt row and the caller streams that
/// row through the bitwise-identical fused kernels instead. A pool with a
/// frame per row (frame_count() == rows()) is the resident "plane":
/// PairCodeStore::Acquire fills it eagerly (Fill), optionally seeded from
/// the previous snapshot generation's plane.
///
/// A tile's content is a pure function of the immutable columns, the
/// similarity fraction and the row, so which rows hold frames, the frame
/// count and the thread count are never observable in explanations — the
/// property the budget-equivalence suites pin.
///
/// Memory: frame_count() frames of TileBytes(rows, features) = n ·
/// ceil(k/32) · 8 bytes each, allocated once at construction (plus O(n)
/// page-table and O(frames) free-list entries); a plane is rows() of them.
///
/// Thread safety: Fetch and Fill are safe from any number of threads. The
/// page table is atomic: a row's entry holds its frame index once the tile
/// is published (release store after the last word is written), so a
/// ready lookup is one acquire load. Claiming a frame, the kBuilding
/// marker and the free list are guarded by the pool mutex; concurrent
/// fetchers of a row being built wait on the pool's condition variable
/// rather than building twice. The condition-variable interop site
/// carries PX_NO_THREAD_SAFETY_ANALYSIS per common/thread_annotations.h,
/// and the TSan CI job covers the build/publish handoff.
///
/// A cancelled or deadline-expired build (ThrowIfInterrupted firing
/// mid-pack) returns its frame to the free list and wakes waiters before
/// the exception propagates; tiles already published stay, so an
/// interrupted Fill resumes where it stopped.
class TilePool {
 public:
  /// `columns` must outlive the pool (the PairCodeStore registry owns the
  /// pool next to its columns). `frames` must not exceed the row count.
  TilePool(const ColumnarLog* columns, double sim_fraction,
           std::size_t frames);

  TilePool(const TilePool&) = delete;
  TilePool& operator=(const TilePool&) = delete;

  /// Bytes one row tile of a (rows, features) log occupies — the
  /// per-frame unit of the budget formula (a plane is rows of these).
  static std::size_t TileBytes(std::size_t rows, std::size_t features);

  /// Row `row`'s tile — rows() pair vectors, pair (row, j) at tile + j *
  /// word_count() — building it into a free frame on first touch; nullptr
  /// when every frame is taken (the caller streams the row). The pointer
  /// stays valid for the pool's lifetime. May throw InterruptedError from
  /// the build's cancellation checkpoint; the claimed frame is freed
  /// first.
  const std::uint64_t* Fetch(std::size_t row);

  /// Builds every row's tile (requires frame_count() == rows()) on
  /// `threads` row stripes (0 = the process default, see ResolveThreads).
  /// With `seed` — the filled plane of the same similarity fraction over a
  /// row-prefix of this pool's log (the previous snapshot generation;
  /// append-only promotion never mutates old rows) — an old row's
  /// old-pair prefix is copied from the seed and only pairs touching a new
  /// row are packed: bitwise what a cold build packs, since
  /// PackIsSameCodes is a pure function of the two rows' immutable
  /// columns. Rows already built are skipped, so after an interrupted
  /// Fill the next one completes the pool. Striping never changes a word.
  void Fill(int threads, const TilePool* seed = nullptr);

  /// True once every row's tile is published — only a plane can get
  /// there, since each published tile holds its own frame.
  bool full() const {
    return ready_.load(std::memory_order_acquire) == rows_;
  }

  std::size_t rows() const { return rows_; }
  /// Words per pair vector: ceil(features / kPackedFeaturesPerWord).
  std::size_t word_count() const { return words_; }
  std::size_t frame_count() const { return frame_count_; }
  double sim_fraction() const { return sim_fraction_; }
  /// Bytes of the frame arena (frame_count() tiles, allocated whether or
  /// not built yet).
  std::size_t bytes() const {
    return data_.size() * sizeof(std::uint64_t);
  }

  /// Monotone counters: fetches served by a ready tile, and fetches that
  /// found none (a build, or a stream once the frames ran out). A plane
  /// is filled before anyone fetches from it and counts neither, so the
  /// counters measure a fractional budget's tile traffic only.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  /// Page-table values besides a frame index.
  static constexpr std::int32_t kNoFrame = -1;
  static constexpr std::int32_t kBuilding = -2;

  /// The published tile of `row`, or nullptr — one acquire load.
  const std::uint64_t* ReadyTile(std::size_t row) const {
    const std::int32_t frame =
        page_table_[row].load(std::memory_order_acquire);
    return frame >= 0 ? data_.data() + static_cast<std::size_t>(frame) *
                                           tile_words_
                      : nullptr;
  }

  /// Returns `row`'s tile, waiting for a concurrent build or building it
  /// into a free frame; nullptr when no frame is free.
  const std::uint64_t* Claim(std::size_t row, const TilePool* seed)
      PX_EXCLUDES(mutex_);

  /// Packs row `row`'s whole tile into `dst`, copying the old-pair prefix
  /// from `seed` when it covers the row. Runs outside the pool lock.
  void BuildTile(std::size_t row, std::uint64_t* dst,
                 const TilePool* seed) const;

  const kernel::RawColumnTable table_;  ///< view over the caller's columns
  const double sim_fraction_;
  const std::size_t rows_;
  const std::size_t words_;       ///< per pair vector
  const std::size_t tile_words_;  ///< per frame: rows_ * words_
  const std::size_t frame_count_;
  /// Frame arena, fixed at construction. Frame words are written only by
  /// the thread that claimed the frame, before the row's release store.
  std::vector<std::uint64_t> data_;
  /// row -> frame index (ready), kBuilding or kNoFrame.
  std::vector<std::atomic<std::int32_t>> page_table_;
  std::atomic<std::size_t> ready_{0};

  mutable Mutex mutex_;
  std::condition_variable cv_;  ///< waits on mutex_.native(): kBuilding -> *
  std::vector<std::size_t> free_frames_ PX_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_FEATURES_TILE_POOL_H_
