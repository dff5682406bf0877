#include "features/tile_pool.h"

#include <algorithm>
#include <mutex>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/row_stripe.h"

namespace perfxplain {

TilePool::TilePool(const ColumnarLog* columns, double sim_fraction,
                   std::size_t frames)
    : table_(*columns),
      sim_fraction_(sim_fraction),
      rows_(columns->rows()),
      words_((columns->schema().size() + kernel::kPackedFeaturesPerWord - 1) /
             kernel::kPackedFeaturesPerWord),
      tile_words_(rows_ * words_),
      frame_count_(frames),
      data_(frames * tile_words_, 0),
      page_table_(rows_) {
  // `columns` was dereferenced in the init list; the owning PairCodeStore
  // validated it at its own construction.
  PX_CHECK(frames <= rows_);
  for (std::size_t row = 0; row < rows_; ++row) {
    page_table_[row].store(kNoFrame, std::memory_order_relaxed);
  }
  free_frames_.reserve(frames);
  // Popped from the back, so frames are claimed in index order.
  for (std::size_t f = frames; f > 0; --f) free_frames_.push_back(f - 1);
}

std::size_t TilePool::TileBytes(std::size_t rows, std::size_t features) {
  const std::size_t words =
      (features + kernel::kPackedFeaturesPerWord - 1) /
      kernel::kPackedFeaturesPerWord;
  return rows * words * sizeof(std::uint64_t);
}

void TilePool::BuildTile(std::size_t row, std::uint64_t* dst,
                         const TilePool* seed) const {
  // One checkpoint per tile, so a deadline or cancellation interrupts a
  // cold sweep or a fill promptly.
  ThrowIfInterrupted();
  std::size_t first_new = 0;
  if (seed != nullptr && row < seed->rows_) {
    // Old row: its old-pair prefix (row, 0..seed->rows_-1) is the seed
    // tile verbatim — copy it, then pack only the new columns.
    std::copy_n(seed->ReadyTile(row), seed->tile_words_, dst);
    first_new = seed->rows_;
  }
  for (std::size_t j = first_new; j < rows_; ++j) {
    kernel::PackIsSameCodesRaw(table_, row, j, sim_fraction_,
                               dst + j * words_);
  }
}

const std::uint64_t* TilePool::Fetch(std::size_t row) {
  PX_CHECK(row < rows_);
  const bool counted = frame_count_ < rows_;
  if (const std::uint64_t* tile = ReadyTile(row)) {
    if (counted) hits_.fetch_add(1, std::memory_order_relaxed);
    return tile;
  }
  if (counted) misses_.fetch_add(1, std::memory_order_relaxed);
  return Claim(row, nullptr);
}

void TilePool::Fill(int threads, const TilePool* seed) {
  PX_CHECK_EQ(frame_count_, rows_) << "only a plane-sized pool fills";
  if (seed != nullptr) {
    PX_CHECK(seed->full()) << "seed plane is not filled";
    PX_CHECK_LE(seed->rows_, rows_) << "seed plane has more rows than the log";
    PX_CHECK_EQ(seed->words_, words_) << "seed plane schema mismatch";
    PX_CHECK_EQ(seed->sim_fraction_, sim_fraction_)
        << "seed plane similarity fraction mismatch";
  }
  ForEachRowStripe(rows_, ResolveThreads(threads),
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t row = begin; row < end; ++row) {
                       ThrowIfInterrupted();
                       if (ReadyTile(row) == nullptr) Claim(row, seed);
                     }
                   });
}

// Claim waits on cv_ through mutex_.native(), which the thread-safety
// analysis cannot follow (common/thread_annotations.h documents this
// interop pattern); the free list is still only touched while the
// unique_lock is held, and the TSan CI job covers the build/publish
// handoff.
const std::uint64_t* TilePool::Claim(std::size_t row, const TilePool* seed)
    PX_NO_THREAD_SAFETY_ANALYSIS {
  std::atomic<std::int32_t>& entry = page_table_[row];
  std::unique_lock<std::mutex> lock(mutex_.native());
  for (;;) {
    const std::int32_t mapped = entry.load(std::memory_order_acquire);
    if (mapped == kNoFrame) break;
    if (mapped != kBuilding) return ReadyTile(row);  // published meanwhile
    // Another thread is building this row's tile; wait for its
    // publication (or for the rollback that unmaps the row).
    cv_.wait(lock);
  }
  if (free_frames_.empty()) return nullptr;  // the caller streams this row
  const std::size_t frame = free_frames_.back();
  free_frames_.pop_back();
  entry.store(kBuilding, std::memory_order_relaxed);
  lock.unlock();
  std::uint64_t* dst = data_.data() + frame * tile_words_;
  try {
    BuildTile(row, dst, seed);
  } catch (...) {
    // An interrupted build frees the frame exactly as if never claimed
    // and wakes fetchers of this row blocked on it; the next fetch
    // rebuilds from scratch.
    lock.lock();
    entry.store(kNoFrame, std::memory_order_relaxed);
    free_frames_.push_back(frame);
    lock.unlock();
    cv_.notify_all();
    throw;
  }
  lock.lock();
  entry.store(static_cast<std::int32_t>(frame), std::memory_order_release);
  ready_.fetch_add(1, std::memory_order_acq_rel);
  lock.unlock();
  cv_.notify_all();
  return dst;
}

}  // namespace perfxplain
