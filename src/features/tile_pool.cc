#include "features/tile_pool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/row_stripe.h"

namespace perfxplain {

namespace {

/// Partners one PackRow pass accumulates in its stack buffer before
/// storing them into the tile.
constexpr std::size_t kPackChunk = 256;

/// 2-bit field of a missing isSame code (kernel::PackedField of
/// kMissingCode). T and F pack as their codes, 1 and 0.
constexpr std::uint64_t kMissingField = 0x3;

std::uint64_t BitsOf(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double DoubleWithBits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// The column walks of the row kernel: each ORs the 2-bit isSame field of
// pairs (row, j), j < count, into acc[j] at bit `shift`. They are
// branch-free, so the compiler may vectorize them.

/// A row whose value is missing: every pair is missing.
void OrMissing(std::size_t count, unsigned shift, std::uint64_t* acc) {
  for (std::size_t j = 0; j < count; ++j) acc[j] |= kMissingField << shift;
}

/// A numeric column whose row value `x` is present: the T bit of
/// kernel::WithinFraction(x, values[j]), without its early return (equal
/// values are similar; NaN is similar to nothing). Each comparison
/// selects a double whose bit pattern is the field's T bit (never used in
/// arithmetic): GCC vectorizes that select under the baseline x86-64
/// flags, but not a comparison converted to an integer. Missing partners
/// hold 0.0; OrAbsent overrides their field.
void OrSimilar(double x, const double* values, std::size_t count,
               double fraction, unsigned shift, std::uint64_t* acc) {
  const double true_bit = DoubleWithBits(std::uint64_t{1} << shift);
  const double ax = std::abs(x);
  for (std::size_t j = 0; j < count; ++j) {
    const double y = values[j];
    const double equal = x == y ? true_bit : 0.0;
    const double near =
        std::abs(x - y) <= fraction * std::max(ax, std::abs(y)) ? true_bit
                                                                : 0.0;
    acc[j] |= BitsOf(equal) | BitsOf(near);
  }
}

/// Sets the missing field of every partner whose `absent` byte is 1.
void OrAbsent(const std::uint8_t* absent, std::size_t count, unsigned shift,
              std::uint64_t* acc) {
  for (std::size_t j = 0; j < count; ++j) {
    acc[j] |= (static_cast<std::uint64_t>(absent[j]) * kMissingField)
              << shift;
  }
}

/// A nominal column whose row code `x` is present: kernel::IsSameNominal.
/// Codes compare as unsigned words; a missing code (negative) has the
/// sign bit set.
void OrNominal(std::int32_t x, const std::int32_t* codes, std::size_t count,
               unsigned shift, std::uint64_t* acc) {
  const std::uint32_t ux = static_cast<std::uint32_t>(x);
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint32_t y = static_cast<std::uint32_t>(codes[j]);
    const std::uint32_t field = (ux == y ? 1u : 0u) | ((y >> 31) * 3u);
    acc[j] |= static_cast<std::uint64_t>(field) << shift;
  }
}

}  // namespace

TilePool::TilePool(const ColumnarLog* columns, double sim_fraction,
                   std::size_t frames)
    : table_(*columns),
      sim_fraction_(sim_fraction),
      rows_(columns->rows()),
      words_((columns->schema().size() + kernel::kPackedFeaturesPerWord - 1) /
             kernel::kPackedFeaturesPerWord),
      tile_words_(rows_ * words_),
      frame_count_(frames),
      absent_(table_.size()),
      data_(new std::uint64_t[frames * tile_words_]),
      page_table_(rows_) {
  // `columns` was dereferenced in the init list; the owning PairCodeStore
  // validated it at its own construction.
  PX_CHECK(frames <= rows_);
  for (std::size_t col = 0; col < table_.size(); ++col) {
    if (!table_.is_numeric(col)) continue;
    const PresenceBitmap& present = table_.numeric(col).present;
    for (std::size_t row = 0; row < rows_; ++row) {
      if (present.Test(row)) continue;
      absent_[col].resize(rows_, 0);
      absent_[col][row] = 1;
    }
  }
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

void TilePool::PackRow(std::size_t row, std::size_t first,
                       std::uint64_t* tile) const {
  const std::size_t k = table_.size();
  std::uint64_t acc[kPackChunk] = {};
  for (std::size_t begin = first; begin < rows_; begin += kPackChunk) {
    const std::size_t count = std::min(kPackChunk, rows_ - begin);
    for (std::size_t w = 0; w < words_; ++w) {
      std::fill_n(acc, count, std::uint64_t{0});
      const std::size_t f_end =
          std::min(k, (w + 1) * kernel::kPackedFeaturesPerWord);
      for (std::size_t f = w * kernel::kPackedFeaturesPerWord; f < f_end;
           ++f) {
        const unsigned shift =
            static_cast<unsigned>(2 * (f % kernel::kPackedFeaturesPerWord));
        if (table_.is_numeric(f)) {
          const std::vector<std::uint8_t>& absent = absent_[f];
          if (!absent.empty() && absent[row] != 0) {
            OrMissing(count, shift, acc);
            continue;
          }
          const double* values = table_.numeric(f).values.data();
          OrSimilar(values[row], values + begin, count, sim_fraction_, shift,
                    acc);
          if (!absent.empty()) {
            OrAbsent(absent.data() + begin, count, shift, acc);
          }
        } else {
          const std::int32_t* codes = table_.nominal(f).codes.data();
          if (codes[row] < 0) {
            OrMissing(count, shift, acc);
          } else {
            OrNominal(codes[row], codes + begin, count, shift, acc);
          }
        }
      }
      std::uint64_t* out = tile + begin * words_ + w;
      for (std::size_t j = 0; j < count; ++j) out[j * words_] = acc[j];
    }
  }
}

void TilePool::BuildTile(std::size_t row, std::uint64_t* dst,
                         const TilePool* seed, std::size_t first) const {
  // One checkpoint per tile, so a deadline or cancellation interrupts a
  // cold sweep or a fill promptly.
  ThrowIfInterrupted();
  if (seed != nullptr && row < seed->rows_) {
    // Old row: its old-pair prefix (row, 0..seed->rows_-1) is the seed
    // tile verbatim — copy it, then pack only the new partners.
    std::copy_n(seed->ReadyTile(row), seed->tile_words_, dst);
    first = seed->rows_;
  }
  PackRow(row, first, dst);
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
  const int workers = ResolveThreads(threads);
  for (std::size_t block = 0; block < rows_; block += kFillBlockRows) {
    ThrowIfInterrupted();
    const std::size_t block_end = std::min(rows_, block + kFillBlockRows);
    ForEachRowStripe(block_end - block, workers,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       FillRows(block, block + begin, block + end, seed);
                     });
    // Rows another thread was building when the stripes claimed theirs:
    // wait for them (or build them whole, should that build have been
    // interrupted). A plane never runs out of frames, so afterwards every
    // row before the next block is published — its mirror sources.
    for (std::size_t row = block; row < block_end; ++row) {
      if (ReadyTile(row) == nullptr) Claim(row, seed);
    }
  }
}

void TilePool::FillRows(std::size_t block, std::size_t begin,
                        std::size_t end, const TilePool* seed) {
  // The stripe's unbuilt rows, claimed under one lock; a row another
  // thread is building is left to it.
  std::vector<std::int32_t> frames(end - begin, kNoFrame);
  {
    MutexLock lock(mutex_);
    for (std::size_t row = begin; row < end; ++row) {
      if (page_table_[row].load(std::memory_order_relaxed) == kNoFrame) {
        frames[row - begin] = TakeFrame(row);
      }
    }
  }
  try {
    // isSame is symmetric: pair (row, j) of a row the seed does not cover
    // is pair (j, row) of the published tile of an earlier block's row j.
    // Walking j outermost reads each source tile's contiguous slice of the
    // stripe's rows and writes at most one page per claimed frame.
    const std::size_t mirrored =
        seed == nullptr ? begin : std::max(begin, seed->rows_);
    for (std::size_t j = 0; j < block; ++j) {
      const std::uint64_t* src = ReadyTile(j);
      for (std::size_t row = mirrored; row < end; ++row) {
        const std::int32_t frame = frames[row - begin];
        if (frame == kNoFrame) continue;
        std::copy_n(src + row * words_, words_,
                    FrameData(frame) + j * words_);
      }
    }
    for (std::size_t row = begin; row < end; ++row) {
      std::int32_t& frame = frames[row - begin];
      if (frame == kNoFrame) continue;
      BuildTile(row, FrameData(frame), seed, block);
      Publish(row, frame);
      frame = kNoFrame;
    }
  } catch (...) {
    for (std::size_t row = begin; row < end; ++row) {
      if (frames[row - begin] != kNoFrame) Release(row, frames[row - begin]);
    }
    throw;
  }
}

std::int32_t TilePool::TakeFrame(std::size_t row) {
  if (free_frames_.empty()) return kNoFrame;
  const std::size_t frame = free_frames_.back();
  free_frames_.pop_back();
  page_table_[row].store(kBuilding, std::memory_order_relaxed);
  return static_cast<std::int32_t>(frame);
}

void TilePool::Publish(std::size_t row, std::int32_t frame) {
  {
    MutexLock lock(mutex_);
    page_table_[row].store(frame, std::memory_order_release);
    ready_.fetch_add(1, std::memory_order_acq_rel);
  }
  cv_.notify_all();
}

void TilePool::Release(std::size_t row, std::int32_t frame) {
  // An interrupted build frees the frame exactly as if never claimed and
  // wakes fetchers of this row blocked on it; the next fetch rebuilds
  // from scratch.
  {
    MutexLock lock(mutex_);
    page_table_[row].store(kNoFrame, std::memory_order_relaxed);
    free_frames_.push_back(static_cast<std::size_t>(frame));
  }
  cv_.notify_all();
}

// Claim waits on cv_ through mutex_.native(), which the thread-safety
// analysis cannot follow (common/thread_annotations.h documents this
// interop pattern); the free list is still only touched while the
// unique_lock is held, and the TSan CI job covers the build/publish
// handoff.
const std::uint64_t* TilePool::Claim(std::size_t row, const TilePool* seed)
    PX_NO_THREAD_SAFETY_ANALYSIS {
  std::int32_t frame = kNoFrame;
  {
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
    frame = TakeFrame(row);
    if (frame == kNoFrame) return nullptr;  // the caller streams this row
  }
  std::uint64_t* dst = FrameData(frame);
  try {
    BuildTile(row, dst, seed, 0);
  } catch (...) {
    Release(row, frame);
    throw;
  }
  Publish(row, frame);
  return dst;
}

}  // namespace perfxplain
