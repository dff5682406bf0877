#ifndef PERFXPLAIN_FEATURES_TILE_POOL_H_
#define PERFXPLAIN_FEATURES_TILE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
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
/// page-table and O(frames) free-list entries, and a byte per cell of
/// each numeric column that misses a value); a plane is rows() of them.
/// The arena is left uninitialized: a build writes every word of its
/// frame (padding fields as zero) before the release store that publishes
/// it, and an unpublished frame is never read, so the arena costs no
/// zeroing pass and a frame no resident pages until it is built.
///
/// Packing: one row kernel (PackRow) packs a row's tile against a range
/// of partner rows one feature column at a time — it fixes the row's
/// value once and walks the column's contiguous values or codes. An
/// on-demand build packs every partner; Fill packs only the partners from
/// its block on and mirrors the rest from earlier rows' published tiles,
/// since code(i, j) == code(j, i).
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

  /// Rows per Fill block. A block's rows pack their partners from the
  /// block's first row on, so a block packs its in-block pairs from both
  /// sides: n · kFillBlockRows / 2 pair packs over the n² / 2 a symmetric
  /// fill needs.
  static constexpr std::size_t kFillBlockRows = 64;

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

  /// Builds every row's tile (requires frame_count() == rows()). Rows go
  /// in ascending blocks of kFillBlockRows, a block's rows on `threads`
  /// row stripes (0 = the process default, see ResolveThreads), and the
  /// next block starts only once every tile of this one is published. A
  /// row packs its partners from its block's first row on and copies its
  /// pairs with the earlier rows from their published tiles (isSame is
  /// symmetric). With `seed` — the filled plane of the same similarity
  /// fraction over a row-prefix of this pool's log (the previous snapshot
  /// generation; append-only promotion never mutates old rows) — an old
  /// row copies its old-pair prefix from the seed and packs only its new
  /// partners; a new row mirrors as above. Either way the words are
  /// bitwise what the per-pair PackIsSameCodesRaw gives, since every code
  /// is a pure function of the two rows' immutable columns. Rows already
  /// built (fetched, or finished by an interrupted Fill) are skipped and
  /// serve as mirror sources, so the next Fill completes the pool.
  /// Neither blocking nor striping changes a word.
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
    return frame_count_ * tile_words_ * sizeof(std::uint64_t);
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

  /// The words of frame `frame`.
  std::uint64_t* FrameData(std::int32_t frame) const {
    return data_.get() + static_cast<std::size_t>(frame) * tile_words_;
  }

  /// The published tile of `row`, or nullptr — one acquire load.
  const std::uint64_t* ReadyTile(std::size_t row) const {
    const std::int32_t frame =
        page_table_[row].load(std::memory_order_acquire);
    return frame >= 0 ? FrameData(frame) : nullptr;
  }

  /// Returns `row`'s tile, waiting for a concurrent build or building it
  /// whole into a free frame (BuildTile); nullptr when no frame is free.
  const std::uint64_t* Claim(std::size_t row, const TilePool* seed)
      PX_EXCLUDES(mutex_);

  /// Fill's work on rows [begin, end) of the block starting at `block`:
  /// claims the unbuilt ones, copies their pairs with the rows before the
  /// block from those rows' published tiles (unless the seed covers the
  /// row), packs the rest (BuildTile) and publishes each tile. Rows
  /// another thread is building are skipped; an interrupted build
  /// releases every frame it claimed and not yet published.
  void FillRows(std::size_t block, std::size_t begin, std::size_t end,
                const TilePool* seed) PX_EXCLUDES(mutex_);

  /// Writes pairs (row, j) for j >= first into `dst`, and the old-pair
  /// prefix copied from `seed` when it covers the row (packing from the
  /// seed's row count on): the seed copy plus PackRow. Runs outside the
  /// pool lock.
  void BuildTile(std::size_t row, std::uint64_t* dst, const TilePool* seed,
                 std::size_t first) const;

  /// The row kernel: packs pairs (row, j) for j in [first, rows()) into
  /// `tile`, one feature column at a time over chunks of partners,
  /// writing every word of those pair vectors (padding fields zero).
  void PackRow(std::size_t row, std::size_t first, std::uint64_t* tile) const;

  /// Pops a free frame for unbuilt `row` and marks the row kBuilding;
  /// kNoFrame when no frame is free.
  std::int32_t TakeFrame(std::size_t row) PX_REQUIRES(mutex_);
  /// Publishes the tile built into `frame`, the frame taken for `row`.
  void Publish(std::size_t row, std::int32_t frame) PX_EXCLUDES(mutex_);
  /// Unmaps `row` and frees its frame (an interrupted build).
  void Release(std::size_t row, std::int32_t frame) PX_EXCLUDES(mutex_);

  const kernel::RawColumnTable table_;  ///< view over the caller's columns
  const double sim_fraction_;
  const std::size_t rows_;
  const std::size_t words_;       ///< per pair vector
  const std::size_t tile_words_;  ///< per frame: rows_ * words_
  const std::size_t frame_count_;
  /// absent_[col][r] is 1 when numeric column col misses row r's value —
  /// contiguous bytes for the row kernel's column walk instead of bitmap
  /// bit tests. Empty for nominal columns and for numeric columns that
  /// miss no value.
  std::vector<std::vector<std::uint8_t>> absent_;
  /// Frame arena, fixed at construction and left uninitialized. Frame
  /// words are written only by the thread that claimed the frame, before
  /// the row's release store.
  std::unique_ptr<std::uint64_t[]> data_;
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
