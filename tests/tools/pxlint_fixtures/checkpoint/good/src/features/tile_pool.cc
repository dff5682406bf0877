// pxlint fixture: the checkpointed twin of the bad fixture — both
// registered entry points for this file (TilePool::Fill and
// TilePool::BuildTile) contain a ThrowIfInterrupted() call, so the
// checkpoint rule must pass. Same-named declarations (no body) in the
// class must not confuse the body extractor.
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
    ThrowIfInterrupted();
    built += r;
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
