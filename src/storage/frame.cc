#include "storage/frame.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32c.h"

namespace perfxplain {

namespace {

constexpr std::size_t kFrameHeaderBytes = 13;
constexpr std::size_t kHeaderCrcCovers = 9;

}  // namespace

void PutU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutBytes(std::string& out, const std::string& bytes) {
  PutU32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

std::uint32_t ReadU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t ReadU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

void SerializeRecord(const ExecutionRecord& record, std::string& out) {
  PutBytes(out, record.id);
  PutU32(out, static_cast<std::uint32_t>(record.values.size()));
  for (const Value& value : record.values) {
    PutU8(out, static_cast<std::uint8_t>(value.kind()));
    if (value.is_numeric()) {
      std::uint64_t bits = 0;
      const double number = value.number();
      std::memcpy(&bits, &number, sizeof(bits));
      PutU64(out, bits);
    } else if (value.is_nominal()) {
      PutBytes(out, value.nominal());
    }
  }
}

bool ParseRecord(PayloadCursor cursor, ExecutionRecord* record) {
  if (!cursor.TakeBytes(&record->id)) return false;
  std::uint32_t count = 0;
  if (!cursor.TakeU32(&count)) return false;
  record->values.clear();
  // The count is untrusted bytes: every value needs at least its kind
  // byte, so bounding the reservation by the remaining payload turns a
  // wild (or CRC-colliding) count into a parse failure below instead of
  // a multi-gigabyte bad_alloc here.
  record->values.reserve(std::min<std::size_t>(count, cursor.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t kind = 0;
    if (!cursor.TakeU8(&kind)) return false;
    switch (static_cast<ValueKind>(kind)) {
      case ValueKind::kMissing:
        record->values.push_back(Value::Missing());
        break;
      case ValueKind::kNumeric: {
        std::uint64_t bits = 0;
        if (!cursor.TakeU64(&bits)) return false;
        double number = 0.0;
        std::memcpy(&number, &bits, sizeof(number));
        record->values.push_back(Value::Number(number));
        break;
      }
      case ValueKind::kNominal: {
        std::string text;
        if (!cursor.TakeBytes(&text)) return false;
        record->values.push_back(Value::Nominal(std::move(text)));
        break;
      }
      default:
        return false;
    }
  }
  return cursor.exhausted();
}

void AppendFrame(std::string& out, std::uint8_t type,
                 const std::string& payload) {
  const std::size_t header_at = out.size();
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU8(out, type);
  PutU32(out, Crc32c(payload.data(), payload.size()));
  PutU32(out, Crc32c(out.data() + header_at, kHeaderCrcCovers));
  out.append(payload);
}

Frame ReadFrame(const std::string& data, std::size_t offset) {
  Frame frame;
  if (data.size() - offset < kFrameHeaderBytes) {
    return frame;  // the header itself is incomplete
  }
  const char* header = data.data() + offset;
  const std::uint32_t payload_len = ReadU32(header);
  const std::size_t payload_at = offset + kFrameHeaderBytes;
  frame.type = static_cast<std::uint8_t>(header[4]);
  frame.end = payload_at + payload_len;
  if (Crc32c(header, kHeaderCrcCovers) != ReadU32(header + 9)) {
    // All 13 header bytes are present, so the header write completed; a
    // mismatch is damage, not a torn write.
    frame.state = Frame::State::kCorrupt;
    frame.what = "frame header checksum mismatch";
    return frame;
  }
  if (data.size() - payload_at < payload_len) {
    return frame;  // the payload ran past EOF mid-write
  }
  if (Crc32c(data.data() + payload_at, payload_len) != ReadU32(header + 5)) {
    frame.state = Frame::State::kCorrupt;
    frame.what = "frame payload checksum mismatch";
    return frame;
  }
  frame.state = Frame::State::kWhole;
  frame.payload = PayloadCursor(data, payload_at, payload_len);
  return frame;
}

std::string NumberedFileName(const std::string& prefix, std::uint64_t index,
                             const std::string& suffix) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return prefix + digits + suffix;
}

std::optional<std::uint64_t> NumberedFileIndex(const std::string& name,
                                               const std::string& prefix,
                                               const std::string& suffix) {
  const std::size_t fixed = prefix.size() + suffix.size();
  // At most 19 digits, so the index cannot overflow a u64.
  if (name.size() <= fixed || name.size() > fixed + 19 ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t index = 0;
  for (std::size_t i = prefix.size(); i + suffix.size() < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    index = index * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return index;
}

}  // namespace perfxplain
