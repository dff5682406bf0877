#include "features/pair_code_store.h"

#include <algorithm>

#include "common/logging.h"

namespace perfxplain {

PairCodeStore::PairCodeStore(const ColumnarLog* columns)
    : columns_(columns) {
  PX_CHECK(columns != nullptr);
}

std::size_t PairCodeStore::BytesNeeded(std::size_t rows,
                                       std::size_t features) {
  return rows * TilePool::TileBytes(rows, features);
}

std::size_t PairCodeStore::bytes_per_plane() const {
  return BytesNeeded(columns_->rows(), columns_->schema().size());
}

std::size_t PairCodeStore::ResidentBytesFor(std::size_t max_bytes) const {
  const std::size_t plane = bytes_per_plane();
  if (plane <= max_bytes) return plane;
  // plane > max_bytes >= 0 implies rows > 0 and a non-zero tile.
  const std::size_t tile =
      TilePool::TileBytes(columns_->rows(), columns_->schema().size());
  return std::min(columns_->rows(), max_bytes / tile) * tile;
}

TilePool* PairCodeStore::FindPool(double sim_fraction,
                                  std::size_t frames) const {
  MutexLock lock(mutex_);
  for (const auto& pool : pools_) {
    if (pool->sim_fraction() == sim_fraction &&
        pool->frame_count() == frames) {
      return pool.get();
    }
  }
  pools_.push_back(std::make_unique<TilePool>(columns_, sim_fraction, frames));
  return pools_.back().get();
}

TilePool* PairCodeStore::Acquire(double sim_fraction, std::size_t max_bytes,
                                 int build_threads,
                                 const TilePool* seed) const {
  if (bytes_per_plane() > max_bytes) return nullptr;
  TilePool* plane = FindPool(sim_fraction, columns_->rows());
  if (!plane->full()) plane->Fill(build_threads, seed);
  return plane;
}

TilePool* PairCodeStore::AcquireTilePool(double sim_fraction,
                                         std::size_t max_bytes) const {
  const std::size_t bytes = ResidentBytesFor(max_bytes);
  if (bytes == 0 || bytes == bytes_per_plane()) return nullptr;
  const std::size_t tile =
      TilePool::TileBytes(columns_->rows(), columns_->schema().size());
  return FindPool(sim_fraction, bytes / tile);
}

const TilePool* PairCodeStore::Peek(double sim_fraction) const {
  MutexLock lock(mutex_);
  for (const auto& pool : pools_) {
    if (pool->sim_fraction() == sim_fraction && pool->full()) {
      return pool.get();
    }
  }
  return nullptr;
}

std::uint64_t PairCodeStore::build_count() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& pool : pools_) total += pool->full();
  return total;
}

std::size_t PairCodeStore::resident_bytes() const {
  MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& pool : pools_) total += pool->bytes();
  return total;
}

std::uint64_t PairCodeStore::tile_hits() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& pool : pools_) total += pool->hits();
  return total;
}

std::uint64_t PairCodeStore::tile_misses() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& pool : pools_) total += pool->misses();
  return total;
}

}  // namespace perfxplain
