#ifndef PERFXPLAIN_STORAGE_FRAME_H_
#define PERFXPLAIN_STORAGE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "log/execution_log.h"

namespace perfxplain {

/// The one on-disk record codec: WAL segments and checkpoint files are a
/// magic followed by frames
///
///   [u32 payload_len][u8 type][u32 payload_crc][u32 header_crc] payload
///
/// (little-endian; header_crc covers the first 9 bytes, so a flipped
/// length reads as corruption, not as a torn write). A record payload
/// holds each double as its bit pattern and each nominal as its bytes, so
/// every value round-trips exactly.
constexpr std::uint8_t kFrameRecord = 1;            // one ExecutionRecord
constexpr std::uint8_t kFrameCommit = 2;            // WAL batch seal
constexpr std::uint8_t kFrameDrainCommit = 3;       // WAL rotation marker
constexpr std::uint8_t kFrameCheckpointHeader = 4;  // generation + schema
constexpr std::uint8_t kFrameCheckpointEnd = 5;     // checkpoint row count

void PutU8(std::string& out, std::uint8_t v);
void PutU32(std::string& out, std::uint32_t v);
void PutU64(std::string& out, std::uint64_t v);
/// A u32 byte count followed by the bytes.
void PutBytes(std::string& out, const std::string& bytes);
std::uint32_t ReadU32(const char* p);
std::uint64_t ReadU64(const char* p);

/// Bounds-checked cursor over a payload; any overrun is corruption, never
/// undefined behaviour.
class PayloadCursor {
 public:
  PayloadCursor() = default;
  PayloadCursor(const std::string& data, std::size_t begin, std::size_t size)
      : data_(data.data() + begin), size_(size) {}

  bool TakeU8(std::uint8_t* out) {
    if (size_ - pos_ < 1) return false;
    *out = static_cast<std::uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }

  bool TakeU32(std::uint32_t* out) {
    if (size_ - pos_ < 4) return false;
    *out = ReadU32(data_ + pos_);
    pos_ += 4;
    return true;
  }

  bool TakeU64(std::uint64_t* out) {
    if (size_ - pos_ < 8) return false;
    *out = ReadU64(data_ + pos_);
    pos_ += 8;
    return true;
  }

  /// PutBytes' inverse.
  bool TakeBytes(std::string* out) {
    std::uint32_t n = 0;
    if (!TakeU32(&n) || size_ - pos_ < n) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

void SerializeRecord(const ExecutionRecord& record, std::string& out);
/// False unless the payload is exactly one well-formed record.
bool ParseRecord(PayloadCursor cursor, ExecutionRecord* record);

void AppendFrame(std::string& out, std::uint8_t type,
                 const std::string& payload);

/// The frame at some offset of a file's bytes: kWhole when header and
/// payload are present and both checksums match; kTorn when either runs
/// past the end (a write that died midway); kCorrupt when a fully present
/// header or payload fails its checksum (`what` says which).
struct Frame {
  enum class State { kWhole, kTorn, kCorrupt };
  State state = State::kTorn;
  std::uint8_t type = 0;
  std::size_t end = 0;    // offset just past the payload
  PayloadCursor payload;  // kWhole only
  const char* what = "";
};

/// Reads the frame at `offset` (< data.size()) of `data`.
Frame ReadFrame(const std::string& data, std::size_t offset);

/// prefix + `index` zero-padded to six digits (wider when needed) +
/// suffix: the names of WAL segments and checkpoint files.
std::string NumberedFileName(const std::string& prefix, std::uint64_t index,
                             const std::string& suffix);
/// NumberedFileName's index, or nullopt for any other name. Any digit
/// count that fits a u64 parses, so indices past 999999 are not ignored.
std::optional<std::uint64_t> NumberedFileIndex(const std::string& name,
                                               const std::string& prefix,
                                               const std::string& suffix);

}  // namespace perfxplain

#endif  // PERFXPLAIN_STORAGE_FRAME_H_
