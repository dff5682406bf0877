#include "storage/wal.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "gtest/gtest.h"
#include "storage/file_io.h"
#include "testing/fault_fs.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::CorruptFileByte;
using testing::FaultFs;
using testing::TinyRecord;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "px_wal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(FileSystem::Default()->RemoveAll(dir_).ok());
  }

  std::string dir_;

  std::vector<ExecutionRecord> Batch(int base, int n) {
    std::vector<ExecutionRecord> records;
    for (int i = 0; i < n; ++i) {
      const int k = base + i;
      records.push_back(TinyRecord("r" + std::to_string(k), 1.5 * k,
                                   k % 2 == 0 ? "red" : "blue", 100.0 * k));
    }
    return records;
  }

  std::string SegmentPath(std::uint64_t index) {
    return dir_ + "/" + WalSegmentFileName(index);
  }

  std::uint64_t SegmentSize(std::uint64_t index) {
    auto bytes = FileSystem::Default()->ReadFile(SegmentPath(index));
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? bytes->size() : 0;
  }
};

void ExpectSameRecords(const std::vector<ExecutionRecord>& got,
                       const std::vector<ExecutionRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    ASSERT_EQ(got[i].values.size(), want[i].values.size());
    for (std::size_t v = 0; v < got[i].values.size(); ++v) {
      EXPECT_EQ(got[i].values[v], want[i].values[v])
          << "record " << i << " value " << v;
    }
  }
}

TEST_F(WalTest, RoundtripsBatchesInOrder) {
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto first = (*writer)->AppendBatch(Batch(0, 3));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  auto second = (*writer)->AppendBatch(Batch(3, 2));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 2u);

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->last_sequence, 2u);
  EXPECT_FALSE(replay->tail_truncated);
  EXPECT_EQ(replay->discarded_records, 0u);
  ASSERT_EQ(replay->batches.size(), 2u);
  EXPECT_EQ(replay->batches[0].sequence, 1u);
  EXPECT_EQ(replay->batches[1].sequence, 2u);
  ExpectSameRecords(replay->batches[0].records, Batch(0, 3));
  ExpectSameRecords(replay->batches[1].records, Batch(3, 2));
}

TEST_F(WalTest, RoundtripsAwkwardValues) {
  // Missing values, NaN-free negatives, commas/quotes/newlines in
  // nominals: the binary frame encoding must not care.
  std::vector<ExecutionRecord> batch;
  batch.emplace_back("weird,id",
                     std::vector<Value>{Value::Missing(),
                                        Value::Nominal("a,\"b\"\nc"),
                                        Value::Number(-0.0)});
  batch.emplace_back("r2", std::vector<Value>{Value::Number(1e308),
                                              Value::Nominal(""),
                                              Value::Number(1.0 / 3.0)});
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 1u);
  ExpectSameRecords(replay->batches[0].records, batch);
}

TEST_F(WalTest, AfterSequenceCutoffSkipsCoveredBatches) {
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok());
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE((*writer)->AppendBatch(Batch(b * 2, 2)).ok());
  }
  auto replay = WalReader::Replay(dir_, /*after_sequence=*/2);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->last_sequence, 4u);
  ASSERT_EQ(replay->batches.size(), 2u);
  EXPECT_EQ(replay->batches[0].sequence, 3u);
  EXPECT_EQ(replay->batches[1].sequence, 4u);
}

TEST_F(WalTest, DrainCommitRecordsPromotion) {
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  ASSERT_TRUE((*writer)->AppendDrainCommit(1, 7).ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->drained_through, 1u);
  EXPECT_EQ(replay->drained_generation, 7u);
}

TEST_F(WalTest, EmptyJournalDirectoryAndMissingDirectoryAreEmpty) {
  auto missing = WalReader::Replay(dir_ + "/never_created");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_TRUE(missing->batches.empty());

  ASSERT_TRUE(FileSystem::Default()->CreateDirs(dir_).ok());
  auto empty = WalReader::Replay(dir_);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->batches.empty());
  EXPECT_EQ(empty->last_sequence, 0u);
}

TEST_F(WalTest, SegmentRotationKeepsBatchesWhole) {
  WalOptions options;
  options.segment_bytes = 64;  // force a rotation per batch
  auto writer = WalWriter::Open(dir_, options);
  ASSERT_TRUE(writer.ok());
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE((*writer)->AppendBatch(Batch(b * 2, 2)).ok());
  }
  auto names = FileSystem::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_GE(names->size(), 3u);

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 3u);
  EXPECT_EQ(replay->last_sequence, 3u);
  EXPECT_EQ(replay->segments.size(), names->size());
}

TEST_F(WalTest, FsyncModesAllCommit) {
  for (const FsyncMode mode :
       {FsyncMode::kEveryBatch, FsyncMode::kEveryN, FsyncMode::kNone}) {
    const std::string dir =
        dir_ + "_mode" + std::to_string(static_cast<int>(mode));
    ASSERT_TRUE(FileSystem::Default()->RemoveAll(dir).ok());
    WalOptions options;
    options.fsync = mode;
    options.fsync_every_n = 2;
    auto writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (int b = 0; b < 5; ++b) {
      ASSERT_TRUE((*writer)->AppendBatch(Batch(b, 1)).ok());
    }
    auto replay = WalReader::Replay(dir);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->batches.size(), 5u);
  }
}

TEST_F(WalTest, TornTailTruncatedAtLastCommitBoundary) {
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  const std::uint64_t committed_end = SegmentSize(1);
  ASSERT_TRUE((*writer)->AppendBatch(Batch(2, 2)).ok());
  const std::uint64_t full_end = SegmentSize(1);

  // Chop the second batch anywhere (descending, since TruncateFile would
  // zero-fill if asked to grow): the first batch must survive and the
  // torn tail must be reported at exactly the committed boundary.
  for (const std::uint64_t cut :
       {full_end - 1, committed_end + 14, committed_end + 1}) {
    ASSERT_TRUE(
        FileSystem::Default()->TruncateFile(SegmentPath(1), cut).ok());
    auto replay = WalReader::Replay(dir_);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut << ": "
                             << replay.status().ToString();
    ASSERT_EQ(replay->batches.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(replay->batches[0].sequence, 1u);
    EXPECT_TRUE(replay->tail_truncated);
    EXPECT_EQ(replay->truncated_file, WalSegmentFileName(1));
    EXPECT_EQ(replay->truncate_offset, committed_end);
  }
}

TEST_F(WalTest, UncommittedRecordFramesAreDiscardedNotReplayed) {
  // Kill the write plane midway through the second batch: its record
  // frames may reach the disk but the commit marker cannot, so replay
  // must discard them (they were never acknowledged).
  FaultFs fs;
  auto writer = WalWriter::Open(dir_, WalOptions{}, 1, {}, &fs);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  fs.Reset(/*write_budget_bytes=*/40);
  auto crashed = (*writer)->AppendBatch(Batch(2, 2));
  ASSERT_FALSE(crashed.ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 1u);
  EXPECT_EQ(replay->batches[0].sequence, 1u);
  EXPECT_TRUE(replay->tail_truncated);
}

TEST_F(WalTest, PoisonedSegmentIsNotExtendedAfterWriteFailure) {
  FaultFs fs;
  auto writer = WalWriter::Open(dir_, WalOptions{}, 1, {}, &fs);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  fs.Reset(/*write_budget_bytes=*/10);  // tear the next append
  ASSERT_FALSE((*writer)->AppendBatch(Batch(2, 2)).ok());
  fs.Reset(/*write_budget_bytes=*/1u << 30);  // disk comes back

  // The writer must rotate to a fresh segment rather than extend the
  // half-written tail, and the journal must replay cleanly end to end.
  auto retried = (*writer)->AppendBatch(Batch(2, 2));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  auto names = FileSystem::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 2u);
  EXPECT_EQ(replay->batches[1].sequence, 2u);
  ExpectSameRecords(replay->batches[1].records, Batch(2, 2));
}

TEST_F(WalTest, TransientSyncFailuresAreRetried) {
  FaultFs fs;
  auto writer = WalWriter::Open(dir_, WalOptions{}, 1, {}, &fs);
  ASSERT_TRUE(writer.ok());
  fs.set_transient_sync_failures(2);
  auto appended = (*writer)->AppendBatch(Batch(0, 2));
  EXPECT_TRUE(appended.ok()) << appended.status().ToString();
}

TEST_F(WalTest, BitFlipInSealedRegionIsCorruptionWithContext) {
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 3)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(3, 3)).ok());
  const std::uint64_t size = SegmentSize(1);

  // Flip one byte at a stride of offsets across the whole segment —
  // magic, headers, payloads, commit markers. Every flip must be reported
  // as corruption naming the segment; none may crash or silently yield a
  // wrong log.
  for (std::uint64_t offset = 0; offset < size; offset += 11) {
    ASSERT_TRUE(CorruptFileByte(SegmentPath(1), offset).ok());
    auto replay = WalReader::Replay(dir_);
    ASSERT_FALSE(replay.ok()) << "flip at " << offset << " was not detected";
    EXPECT_NE(replay.status().ToString().find(WalSegmentFileName(1)),
              std::string::npos)
        << "error lacks file context: " << replay.status().ToString();
    ASSERT_TRUE(CorruptFileByte(SegmentPath(1), offset).ok());  // restore
  }
  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->batches.size(), 2u);
}

TEST_F(WalTest, DestroyedCommittedBatchInSealedSegmentIsDetected) {
  WalOptions options;
  options.segment_bytes = 64;  // batch 1 and batch 2 land in different files
  auto writer = WalWriter::Open(dir_, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(2, 2)).ok());
  auto names = FileSystem::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  ASSERT_GE(names->size(), 2u);

  // Tear off batch 1's commit marker in the sealed first segment. The
  // torn tail itself is tolerated (the poison-rotate path produces those
  // legitimately), but batch 1 was committed and acknowledged — replay
  // must notice its loss via the sequence invariant, not drop it quietly.
  const std::uint64_t size = SegmentSize(1);
  ASSERT_TRUE(
      FileSystem::Default()->TruncateFile(SegmentPath(1), size - 3).ok());
  auto replay = WalReader::Replay(dir_);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().ToString().find("missing"), std::string::npos)
      << replay.status().ToString();
}

TEST_F(WalTest, ShortGarbageTailIsTornLongGarbageTailIsCorruption) {
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  const std::uint64_t committed_end = SegmentSize(1);

  // Fewer bytes than a frame header cannot be told apart from a torn
  // write, so they are truncated at the committed boundary.
  {
    auto file = FileSystem::Default()->OpenForAppend(SegmentPath(1));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("garbage").ok());
    ASSERT_TRUE((*file)->Close().ok());
    auto replay = WalReader::Replay(dir_);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    ASSERT_EQ(replay->batches.size(), 1u);
    EXPECT_TRUE(replay->tail_truncated);
    EXPECT_EQ(replay->truncate_offset, committed_end);
  }

  // A full header's worth of garbage fails the header CRC — that is
  // corruption even in the youngest segment, never silently dropped.
  ASSERT_TRUE(
      FileSystem::Default()->TruncateFile(SegmentPath(1), committed_end).ok());
  {
    auto file = FileSystem::Default()->OpenForAppend(SegmentPath(1));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("garbage bytes that are no frame").ok());
    ASSERT_TRUE((*file)->Close().ok());
    auto replay = WalReader::Replay(dir_);
    ASSERT_FALSE(replay.ok());
    EXPECT_NE(replay.status().ToString().find(WalSegmentFileName(1)),
              std::string::npos)
        << replay.status().ToString();
  }
}

TEST_F(WalTest, DuplicateCommitSequenceIsCorruption) {
  // Craft a journal whose second commit repeats sequence 1 by copying the
  // committed bytes after themselves: replay must refuse (sequences are
  // strictly increasing), not double-apply the batch.
  auto writer = WalWriter::Open(dir_, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  auto bytes = FileSystem::Default()->ReadFile(SegmentPath(1));
  ASSERT_TRUE(bytes.ok());
  const std::string frames = bytes->substr(8);  // skip the magic
  auto file = FileSystem::Default()->OpenForAppend(SegmentPath(1));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(frames).ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().ToString().find("sequence"), std::string::npos)
      << replay.status().ToString();
}

TEST_F(WalTest, TruncateThroughDeletesOnlyCoveredSealedSegments) {
  WalOptions options;
  options.segment_bytes = 64;
  auto writer = WalWriter::Open(dir_, options);
  ASSERT_TRUE(writer.ok());
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE((*writer)->AppendBatch(Batch(b * 2, 2)).ok());
  }
  // Segments 1..2 are sealed (holding batches 1..2); 3 is active. A
  // truncation always mirrors a checkpoint, so later replays pass the
  // checkpoint cutoff as after_sequence.
  ASSERT_TRUE((*writer)->TruncateThrough(1).ok());
  auto names = FileSystem::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->front(), WalSegmentFileName(2));

  ASSERT_TRUE((*writer)->TruncateThrough(3).ok());
  names = FileSystem::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);  // the active segment survives

  auto replay = WalReader::Replay(dir_, /*after_sequence=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 1u);
  EXPECT_EQ(replay->batches[0].sequence, 3u);

  // Without the checkpoint's cutoff the vanished prefix is
  // indistinguishable from destroyed committed batches — replay refuses.
  auto blind = WalReader::Replay(dir_);
  ASSERT_FALSE(blind.ok());
}

TEST_F(WalTest, SyncFailureBurnsTheSequenceInsteadOfReusingIt) {
  // The frames (commit marker included) reach the file, then the fsync
  // barrier dies past the retry budget. The batch is not acknowledged,
  // but its commit frame exists on disk — the sequence must be burned,
  // not reused: a retry under the same number would write a second
  // commit frame for sequence 1 and the journal would replay as corrupt
  // ("committed sequences are consecutive") forever after.
  FaultFs fs;
  auto writer = WalWriter::Open(dir_, WalOptions{}, 1, {}, &fs);
  ASSERT_TRUE(writer.ok());
  fs.set_transient_sync_failures(100);  // outlives the retry budget
  ASSERT_FALSE((*writer)->AppendBatch(Batch(0, 2)).ok());
  fs.set_transient_sync_failures(0);  // the disk comes back

  auto retried = (*writer)->AppendBatch(Batch(2, 2));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 2u);

  // The unacknowledged batch 1 happens to have survived (its bytes were
  // written, only the barrier failed); replay must accept the journal
  // either way — never refuse it as a duplicate-sequence fork.
  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 2u);
  EXPECT_EQ(replay->batches[0].sequence, 1u);
  EXPECT_EQ(replay->batches[1].sequence, 2u);
  ExpectSameRecords(replay->batches[1].records, Batch(2, 2));
}

TEST_F(WalTest, ShortStubSegmentMidJournalIsTornNotCorrupt) {
  // A write failure during segment creation can leave a stub shorter
  // than the magic sealed mid-journal (poison, rotate onward). That stub
  // holds nothing committed and must replay as torn, not corruption —
  // the consecutive-sequence invariant still guards real loss.
  WalOptions options;
  options.segment_bytes = 1;  // every append seals into its own segment
  {
    auto writer = WalWriter::Open(dir_, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
    ASSERT_TRUE((*writer)->AppendBatch(Batch(2, 2)).ok());
  }
  // Segment 1 held only its magic; tear it back to 3 bytes.
  ASSERT_TRUE(FileSystem::Default()->TruncateFile(SegmentPath(1), 3).ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 2u);
  EXPECT_EQ(replay->last_sequence, 2u);
  EXPECT_FALSE(replay->tail_truncated);  // the stub is not the youngest
}

TEST_F(WalTest, DirectoryNamedLikeASegmentFailsReplay) {
  {
    auto writer = WalWriter::Open(dir_, WalOptions{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  }
  // Not an empty (torn) youngest segment: nothing in it can be read.
  ASSERT_TRUE(FileSystem::Default()->CreateDirs(SegmentPath(2)).ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kIoError);
  EXPECT_NE(replay.status().message().find(WalSegmentFileName(2) +
                                           "': is a directory"),
            std::string::npos)
      << replay.status().ToString();
}

TEST_F(WalTest, SegmentIndicesPastSixDigitsReplayInNumericOrder) {
  // Past index 999999 the file names widen to seven digits and stop
  // sorting lexicographically ("wal-1000000.log" < "wal-999999.log").
  // Such segments must neither vanish from replay nor be visited out of
  // order, and a reopened writer must number new segments above them.
  WalOptions options;
  options.segment_bytes = 1;
  {
    auto writer = WalWriter::Open(dir_, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());  // segment 2
    ASSERT_TRUE((*writer)->AppendBatch(Batch(2, 2)).ok());  // segment 3
  }
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->Rename(SegmentPath(2), SegmentPath(999999)).ok());
  ASSERT_TRUE(fs->Rename(SegmentPath(3), SegmentPath(1000000)).ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 2u);
  EXPECT_EQ(replay->batches[0].sequence, 1u);
  EXPECT_EQ(replay->batches[1].sequence, 2u);

  auto writer = WalWriter::Open(dir_, options, replay->last_sequence + 1,
                                replay->segments);
  ASSERT_TRUE(writer.ok());
  auto exists = fs->FileExists(SegmentPath(1000001));
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);
  ASSERT_TRUE((*writer)->AppendBatch(Batch(4, 2)).ok());

  auto again = WalReader::Replay(dir_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->batches.size(), 3u);
  EXPECT_EQ(again->batches[2].sequence, 3u);
  ExpectSameRecords(again->batches[2].records, Batch(4, 2));
}

TEST_F(WalTest, HugeValueCountIsCorruptionNotBadAlloc) {
  // A crafted (or 1-in-2^32 CRC-colliding) record frame can carry a
  // value count near 4 billion with both checksums valid; parsing must
  // bound its allocation by the payload size and report corruption, not
  // die in std::bad_alloc attempting a multi-hundred-GB reservation.
  auto put_u32 = [](std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  };
  std::string payload;
  put_u32(payload, 1);  // id length
  payload.push_back('x');
  put_u32(payload, 0xFFFFFFFFu);  // value count: ~4 billion
  std::string frame;
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.push_back(static_cast<char>(1));  // kFrameRecord
  put_u32(frame, Crc32c(payload.data(), payload.size()));
  put_u32(frame, Crc32c(frame.data(), 9));
  frame += payload;

  ASSERT_TRUE(FileSystem::Default()->CreateDirs(dir_).ok());
  auto file = FileSystem::Default()->OpenForAppend(SegmentPath(1));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(kWalMagic, 8) + frame).ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto replay = WalReader::Replay(dir_);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().ToString().find("malformed record frame"),
            std::string::npos)
      << replay.status().ToString();
}

TEST_F(WalTest, ReopenedJournalNumbersNewSegmentsAfterExisting) {
  {
    auto writer = WalWriter::Open(dir_, WalOptions{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendBatch(Batch(0, 2)).ok());
  }
  auto replay = WalReader::Replay(dir_);
  ASSERT_TRUE(replay.ok());
  auto writer = WalWriter::Open(dir_, WalOptions{},
                                replay->last_sequence + 1, replay->segments);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->next_sequence(), 2u);
  auto appended = (*writer)->AppendBatch(Batch(2, 2));
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, 2u);

  auto again = WalReader::Replay(dir_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->batches.size(), 2u);
  EXPECT_EQ(again->batches[1].sequence, 2u);
}

}  // namespace
}  // namespace perfxplain
