// pxlint fixture: TilePool::Fill is a registered long-loop entry point
// (pxlint CHECKPOINT_REGISTRY) but this definition has no
// ThrowIfInterrupted() checkpoint — the linter must report exactly it.
// BuildTile (also registered for this file) is checkpointed and must not
// be reported. The mention in this comment must not count:
// ThrowIfInterrupted().
#include <cstddef>

namespace perfxplain {

inline void ThrowIfInterrupted() {}

class TilePool {
 public:
  std::size_t Fill(std::size_t rows);
  std::size_t BuildTile(std::size_t row);
};

std::size_t TilePool::Fill(std::size_t rows) {
  std::size_t built = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    built += r;  // long loop, no cooperative checkpoint: finding
  }
  return built;
}

std::size_t TilePool::BuildTile(std::size_t row) {
  std::size_t words = 0;
  for (std::size_t j = 0; j < row; ++j) {
    ThrowIfInterrupted();
    words += j;
  }
  return words;
}

}  // namespace perfxplain
