#include "storage/checkpoint.h"

#include <utility>
#include <vector>

#include "common/cancel.h"
#include "storage/frame.h"

namespace perfxplain {

namespace {

constexpr char kCheckpointMagic[] = "PXCKPT02";
constexpr std::size_t kMagicBytes = 8;
constexpr char kTmpPrefix[] = ".tmp-";

/// 0 for names other than "checkpoint-NNNNNN" (generations start at 1).
std::uint64_t GenerationOf(const std::string& name) {
  return NumberedFileIndex(name, "checkpoint-", "").value_or(0);
}

Status CorruptAt(const std::string& path, std::uint64_t offset,
                 const std::string& what) {
  return Status::IoError("corrupt checkpoint '" + path + "' at offset " +
                         std::to_string(offset) + ": " + what);
}

/// The whole file: magic, header frame, one record frame per row in log
/// order, end frame.
std::string EncodeCheckpoint(const ColumnarLog& columns,
                             std::uint64_t generation,
                             std::uint64_t wal_through) {
  std::string out(kCheckpointMagic, kMagicBytes);
  std::string payload;
  PutU64(payload, generation);
  PutU64(payload, wal_through);
  PutU32(payload, static_cast<std::uint32_t>(columns.schema().size()));
  for (const FeatureDef& def : columns.schema().defs()) {
    PutU8(payload, static_cast<std::uint8_t>(def.kind));
    PutBytes(payload, def.name);
  }
  AppendFrame(out, kFrameCheckpointHeader, payload);
  for (std::size_t row = 0; row < columns.rows(); ++row) {
    payload.clear();
    SerializeRecord(columns.Record(row), payload);
    AppendFrame(out, kFrameRecord, payload);
  }
  payload.clear();
  PutU64(payload, columns.rows());
  AppendFrame(out, kFrameCheckpointEnd, payload);
  return out;
}

bool ParseHeader(PayloadCursor cursor, CheckpointContents* contents) {
  std::uint32_t features = 0;
  if (!cursor.TakeU64(&contents->generation) ||
      !cursor.TakeU64(&contents->wal_through) || !cursor.TakeU32(&features)) {
    return false;
  }
  Schema schema;
  for (std::uint32_t f = 0; f < features; ++f) {
    std::uint8_t kind = 0;
    std::string name;
    if (!cursor.TakeU8(&kind) || !cursor.TakeBytes(&name) ||
        !schema.Add(std::move(name), static_cast<ValueKind>(kind)).ok()) {
      return false;
    }
  }
  contents->log = ExecutionLog(std::move(schema));
  return cursor.exhausted();
}

}  // namespace

std::string CheckpointFileName(std::uint64_t generation) {
  return NumberedFileName("checkpoint-", generation, "");
}

Status SnapshotCheckpoint::Write(const std::string& dir,
                                 const ColumnarLog& columns,
                                 std::uint64_t generation,
                                 std::uint64_t wal_through, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  if (generation == 0) {
    return Status::InvalidArgument("checkpoint generations start at 1");
  }
  PX_RETURN_IF_ERROR(fs->CreateDirs(dir));
  const std::string final_name = CheckpointFileName(generation);
  const std::string tmp_path = dir + "/" + kTmpPrefix + final_name;
  const std::string final_path = dir + "/" + final_name;
  // A stale tmp from a crashed earlier attempt must not pollute this one.
  PX_RETURN_IF_ERROR(fs->RemoveAll(tmp_path));
  {
    Result<std::unique_ptr<WritableFile>> file = fs->OpenForAppend(tmp_path);
    if (!file.ok()) return file.status();
    PX_RETURN_IF_ERROR(
        (*file)->Append(EncodeCheckpoint(columns, generation, wal_through)));
    PX_RETURN_IF_ERROR((*file)->Sync());
    PX_RETURN_IF_ERROR((*file)->Close());
  }
  // Publish atomically: rename then directory fsync. Before the fsync the
  // rename itself may not survive a power cut, but then the old state is
  // still intact — the protocol never exposes a partial file.
  PX_RETURN_IF_ERROR(fs->Rename(tmp_path, final_path));
  PX_RETURN_IF_ERROR(fs->SyncDir(dir));

  // Retire older checkpoints and stale tmps. Best-effort: the new
  // checkpoint is already durable, and a leftover only costs disk until
  // the next sweep.
  Result<std::vector<std::string>> names = fs->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      if (name == final_name) continue;
      const bool stale_tmp = name.compare(0, 5, kTmpPrefix) == 0;
      const std::uint64_t other = GenerationOf(name);
      if (stale_tmp || (other != 0 && other < generation)) {
        (void)fs->RemoveAll(dir + "/" + name);
      }
    }
  }
  return Status::OK();
}

Result<CheckpointContents> SnapshotCheckpoint::LoadLatest(
    const std::string& dir, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  Result<bool> exists = fs->FileExists(dir);
  if (!exists.ok()) return exists.status();
  if (!*exists) return Status::NotFound("no checkpoint directory: " + dir);
  Result<std::vector<std::string>> names = fs->ListDir(dir);
  if (!names.ok()) return names.status();
  std::uint64_t best = 0;
  std::string best_name;
  for (const std::string& name : *names) {
    const std::uint64_t generation = GenerationOf(name);
    if (generation > best) {
      best = generation;
      best_name = name;
    }
  }
  if (best == 0) return Status::NotFound("no checkpoint in: " + dir);

  const std::string path = dir + "/" + best_name;
  Result<std::string> data = fs->ReadFile(path);
  if (!data.ok()) return data.status();
  // Rebuild the log through ExecutionLog::Add. Anything but a whole,
  // consistent file is a contextful IoError naming the file and offset.
  try {
    if (data->size() < kMagicBytes ||
        data->compare(0, kMagicBytes, kCheckpointMagic, kMagicBytes) != 0) {
      return CorruptAt(path, 0, "bad checkpoint magic");
    }
    CheckpointContents contents;
    bool saw_header = false;
    std::size_t offset = kMagicBytes;
    while (offset < data->size()) {
      ThrowIfInterrupted();
      const Frame frame = ReadFrame(*data, offset);
      if (frame.state == Frame::State::kTorn) {
        return CorruptAt(path, offset, "torn frame");
      }
      if (frame.state == Frame::State::kCorrupt) {
        return CorruptAt(path, offset, frame.what);
      }
      PayloadCursor cursor = frame.payload;
      if (!saw_header) {
        if (frame.type != kFrameCheckpointHeader ||
            !ParseHeader(cursor, &contents)) {
          return CorruptAt(path, offset, "malformed header frame");
        }
        if (contents.generation != best) {
          return CorruptAt(path, offset,
                           "generation " +
                               std::to_string(contents.generation) +
                               " does not match the file name");
        }
        saw_header = true;
      } else if (frame.type == kFrameRecord) {
        ExecutionRecord record;
        if (!ParseRecord(cursor, &record)) {
          return CorruptAt(path, offset, "malformed record frame");
        }
        Status added = contents.log.Add(std::move(record));
        if (!added.ok()) return CorruptAt(path, offset, added.message());
      } else if (frame.type == kFrameCheckpointEnd) {
        std::uint64_t rows = 0;
        if (!cursor.TakeU64(&rows) || !cursor.exhausted()) {
          return CorruptAt(path, offset, "malformed end frame");
        }
        if (rows != contents.log.size()) {
          return CorruptAt(path, offset,
                           "end frame counts " + std::to_string(rows) +
                               " rows but " +
                               std::to_string(contents.log.size()) +
                               " precede it");
        }
        if (frame.end != data->size()) {
          return CorruptAt(path, frame.end, "bytes after the end frame");
        }
        return contents;
      } else {
        return CorruptAt(path, offset,
                         "unknown frame type " + std::to_string(frame.type));
      }
      offset = frame.end;
    }
    return CorruptAt(path, offset, "missing end frame");
  } catch (const InterruptedError& interrupted) {
    return interrupted.status();
  }
}

}  // namespace perfxplain
