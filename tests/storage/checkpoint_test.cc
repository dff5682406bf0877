#include "storage/checkpoint.h"

#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/file_io.h"
#include "storage/frame.h"
#include "testing/fault_fs.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::CorruptFileByte;
using testing::FaultFs;
using testing::TinyRecord;
using testing::TinySchema;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "px_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(FileSystem::Default()->RemoveAll(dir_).ok());
  }

  std::string dir_;

  ExecutionLog MakeLog(int rows) {
    ExecutionLog log(TinySchema());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(log.Add(TinyRecord("r" + std::to_string(i), 1.0 * i,
                                     i % 2 == 0 ? "red" : "blue",
                                     10.0 * i))
                      .ok());
    }
    return log;
  }

  /// Offset just past the magic and the header frame.
  static std::size_t HeaderEnd(const std::string& bytes) {
    return ReadFrame(bytes, /*offset=*/8).end;
  }

  /// Flips the byte at `offset`, expects a load to fail naming the file,
  /// and flips it back.
  void ExpectFlipDetected(const std::string& path, std::uint64_t offset) {
    ASSERT_TRUE(CorruptFileByte(path, offset).ok());
    auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
    ASSERT_FALSE(loaded.ok()) << "flip at offset " << offset;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find(path), std::string::npos)
        << loaded.status().ToString();
    ASSERT_TRUE(CorruptFileByte(path, offset).ok());  // restore
  }
};

TEST_F(CheckpointTest, WriteLoadRoundtrip) {
  const ExecutionLog log = MakeLog(5);
  ASSERT_TRUE(SnapshotCheckpoint::Write(dir_, ColumnarLog(log),
                                        /*generation=*/3, /*wal_through=*/12)
                  .ok());
  auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 3u);
  EXPECT_EQ(loaded->wal_through, 12u);
  EXPECT_EQ(loaded->log.ToCsvText(), log.ToCsvText());
}

TEST_F(CheckpointTest, MissingAndEmptyDirectoriesAreNotFound) {
  auto missing = SnapshotCheckpoint::LoadLatest(dir_ + "/nope");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(FileSystem::Default()->CreateDirs(dir_).ok());
  auto empty = SnapshotCheckpoint::LoadLatest(dir_);
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, NewestGenerationWinsAndOlderOnesAreSwept) {
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(2)), 2, 4).ok());
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(6)), 5, 9).ok());

  auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 5u);
  EXPECT_EQ(loaded->log.size(), 6u);

  // The second successful Write swept the generation-2 directory.
  auto names = FileSystem::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  EXPECT_EQ(names->front(), CheckpointFileName(5));
}

TEST_F(CheckpointTest, EveryCorruptedManifestByteIsDetected) {
  // The manifest of a checkpoint file: its magic and header frame
  // (generation, wal_through, schema).
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(4)), 7, 3).ok());
  const std::string path = dir_ + "/" + CheckpointFileName(7);
  auto bytes = FileSystem::Default()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  for (std::uint64_t offset = 0; offset < HeaderEnd(*bytes); ++offset) {
    ASSERT_NO_FATAL_FAILURE(ExpectFlipDetected(path, offset));
  }
  EXPECT_TRUE(SnapshotCheckpoint::LoadLatest(dir_).ok());
}

TEST_F(CheckpointTest, CorruptedLogPayloadIsDetected) {
  // Every byte past the header: the record frames and the end frame.
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(4)), 7, 3).ok());
  const std::string path = dir_ + "/" + CheckpointFileName(7);
  auto bytes = FileSystem::Default()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  for (std::uint64_t offset = HeaderEnd(*bytes); offset < bytes->size();
       ++offset) {
    ASSERT_NO_FATAL_FAILURE(ExpectFlipDetected(path, offset));
  }
  EXPECT_TRUE(SnapshotCheckpoint::LoadLatest(dir_).ok());
}

TEST_F(CheckpointTest, DeletedPayloadIsDetected) {
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(4)), 7, 3).ok());
  const std::string path = dir_ + "/" + CheckpointFileName(7);
  auto bytes = FileSystem::Default()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  const std::size_t header_end = HeaderEnd(*bytes);
  std::size_t end_frame = header_end;
  while (ReadFrame(*bytes, end_frame).type != kFrameCheckpointEnd) {
    end_frame = ReadFrame(*bytes, end_frame).end;
  }
  // Every row frame gone, the header and end frame kept whole: the end
  // frame's row count must catch it. Then the end frame gone as well.
  for (const std::string& stripped :
       {bytes->substr(0, header_end) + bytes->substr(end_frame),
        bytes->substr(0, header_end)}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << stripped;
    auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
    ASSERT_FALSE(loaded.ok()) << stripped.size() << " bytes left";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find(path), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(CheckpointTest, EveryTruncationIsDetected) {
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(4)), 7, 3).ok());
  const std::string path = dir_ + "/" + CheckpointFileName(7);
  auto bytes = FileSystem::Default()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  for (std::size_t length = 0; length < bytes->size(); ++length) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes->data(), static_cast<std::streamsize>(length));
    out.close();
    auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
    ASSERT_FALSE(loaded.ok()) << "truncated to " << length << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find(path), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(CheckpointTest, GenerationDisagreeingWithTheFileNameIsDetected) {
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(4)), 7, 3).ok());
  ASSERT_TRUE(FileSystem::Default()
                  ->Rename(dir_ + "/" + CheckpointFileName(7),
                           dir_ + "/" + CheckpointFileName(9))
                  .ok());
  auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(CheckpointFileName(9)),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CheckpointTest, CorruptNewestIsNeverASilentFallbackToOlder) {
  // Both generations on disk (sweep skipped by writing newest first by
  // hand): corruption of the newest must surface, not quietly serve gen 2.
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(6)), 5, 9).ok());
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(2)), 2, 4).ok());
  auto newest_exists =
      FileSystem::Default()->FileExists(dir_ + "/" + CheckpointFileName(5));
  ASSERT_TRUE(newest_exists.ok() && *newest_exists);
  const std::string newest = dir_ + "/" + CheckpointFileName(5);
  ASSERT_TRUE(CorruptFileByte(newest, 3).ok());
  auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(CheckpointTest, CrashMidWriteLeavesPreviousCheckpointServable) {
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(3)), 2, 4).ok());

  // Kill the write plane at a sweep of budgets across the second Write:
  // whatever survives, LoadLatest must still serve generation 2 intact —
  // the tmp-dir protocol never publishes a half-written checkpoint.
  for (std::uint64_t budget = 0; budget <= 400; budget += 23) {
    FaultFs fs(budget);
    Status crashed =
        SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(8)), 6, 11, &fs);
    if (crashed.ok()) break;  // budget outlasted the whole write
    auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
    ASSERT_TRUE(loaded.ok())
        << "budget " << budget << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->generation, 2u) << "budget " << budget;
    EXPECT_EQ(loaded->log.size(), 3u);
  }

  // And a later healthy Write recovers fully, sweeping the debris.
  ASSERT_TRUE(
      SnapshotCheckpoint::Write(dir_, ColumnarLog(MakeLog(8)), 6, 11).ok());
  auto loaded = SnapshotCheckpoint::LoadLatest(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 6u);
  auto names = FileSystem::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u) << "stale tmp/old dirs not swept";
}

}  // namespace
}  // namespace perfxplain
