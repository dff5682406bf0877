// The crash-injection harness pinning the durability tentpole: a durable
// LiveEngine is killed at every k-th byte of its write plane, recovered
// from whatever bytes survived, and the recovered engine must (a) contain
// every acknowledged append, (b) answer explanations bitwise identical to
// an uncrashed engine over the same acknowledged appends, and (c) on
// injected corruption either refuse with a contextful Status or serve the
// exact reference answer — never crash, never silently serve wrong data.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "core/pair_enumeration.h"
#include "gtest/gtest.h"
#include "serving/live_engine.h"
#include "storage/file_io.h"
#include "storage/frame.h"
#include "storage/wal.h"
#include "testing/fault_fs.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::CausalLog;
using perfxplain::testing::CorruptFileByte;
using perfxplain::testing::FaultFs;
using perfxplain::testing::GtVsSimQuery;
using perfxplain::testing::TinyRecord;
using perfxplain::testing::TinySchema;

bool PickPair(const ExecutionLog& log, Query& query) {
  const PairSchema schema(log.schema());
  Query bound = query;
  if (!bound.Bind(schema).ok()) return false;
  auto poi = reference::FindPairOfInterest(log, query);
  if (!poi.ok()) return false;
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;
  return true;
}

::testing::AssertionResult SameExplanation(const Explanation& actual,
                                           const Explanation& expected) {
  if (!(actual.because == expected.because)) {
    return ::testing::AssertionFailure()
           << "because: " << actual.because.ToString() << " vs "
           << expected.because.ToString();
  }
  if (actual.because_trace.size() != expected.because_trace.size()) {
    return ::testing::AssertionFailure() << "trace size differs";
  }
  for (std::size_t a = 0; a < expected.because_trace.size(); ++a) {
    if (actual.because_trace[a].score != expected.because_trace[a].score) {
      return ::testing::AssertionFailure()
             << "score of atom " << a << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class RecoveryTest : public ::testing::Test {
 protected:
  // 24 served rows; 16 more arrive as four acknowledged batches of four.
  RecoveryTest() : full_(CausalLog(40, 11)), seed_(full_.schema()) {
    for (std::size_t i = 0; i < 24; ++i) {
      EXPECT_TRUE(seed_.Add(full_.at(i)).ok());
    }
    for (std::size_t b = 0; b < 4; ++b) {
      std::vector<ExecutionRecord> batch;
      for (std::size_t i = 0; i < 4; ++i) {
        batch.push_back(full_.at(24 + b * 4 + i));
      }
      batches_.push_back(std::move(batch));
    }
  }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "px_recovery_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ResetDirs();
  }

  void ResetDirs() {
    ASSERT_TRUE(FileSystem::Default()->RemoveAll(dir_).ok());
  }

  DurabilityOptions Durability() const {
    DurabilityOptions durability;
    durability.wal_dir = dir_ + "/wal";
    durability.checkpoint_dir = dir_ + "/ckpt";
    return durability;
  }

  static EngineOptions SerialOptions() {
    EngineOptions options;
    options.explainer.threads = 1;
    options.sim_but_diff.threads = 1;
    options.rule_of_thumb.relief.threads = 1;
    return options;
  }

  /// seed_ plus the first `acked_batches` batches, in append order — what
  /// an uncrashed engine over the acknowledged stream serves.
  ExecutionLog ReferenceLog(std::size_t acked_batches) const {
    ExecutionLog log = seed_;
    for (std::size_t b = 0; b < acked_batches; ++b) {
      for (const ExecutionRecord& record : batches_[b]) {
        EXPECT_TRUE(log.Add(record).ok());
      }
    }
    return log;
  }

  /// Explanation of the uncrashed reference over `acked_batches`.
  Explanation ReferenceExplanation(std::size_t acked_batches) {
    LiveEngine live(ReferenceLog(acked_batches), SerialOptions());
    Query query = GtVsSimQuery();
    EXPECT_TRUE(PickPair(seed_, query));  // pair lives in the seed rows
    auto prepared = live.Prepare(query);
    EXPECT_TRUE(prepared.ok());
    auto response = live.Explain(*prepared);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response->explanation;
  }

  Explanation RecoveredExplanation(LiveEngine& live) {
    Query query = GtVsSimQuery();
    EXPECT_TRUE(PickPair(seed_, query));
    auto prepared = live.Prepare(query);
    EXPECT_TRUE(prepared.ok());
    auto response = live.Explain(*prepared);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response->explanation;
  }

  ExecutionLog full_;
  ExecutionLog seed_;
  std::vector<std::vector<ExecutionRecord>> batches_;
  std::string dir_;
};

TEST_F(RecoveryTest, FreshDirectoriesStartJournalingNotRecovering) {
  RecoveryStats stats;
  auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions(),
                                  RotationPolicy{}, &stats);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_FALSE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.replayed_batches, 0u);
  EXPECT_FALSE(stats.wal_tail_truncated);
  ASSERT_TRUE((*live)->AppendBatch(batches_[0]).ok());
  EXPECT_EQ((*live)->pending_rows(), 4u);
}

TEST_F(RecoveryTest, CleanShutdownRecoversBitwiseIdenticalExplanations) {
  {
    auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions());
    ASSERT_TRUE(live.ok());
    for (const auto& batch : batches_) {
      ASSERT_TRUE((*live)->AppendBatch(batch).ok());
    }
    auto rotated = (*live)->Rotate();
    ASSERT_TRUE(rotated.ok());
    EXPECT_TRUE(rotated->checkpointed) << rotated->checkpoint_error;
  }
  RecoveryStats stats;
  auto recovered = LiveEngine::Recover(seed_, Durability(), SerialOptions(),
                                       RotationPolicy{}, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.checkpoint_rows, 40u);
  EXPECT_EQ(stats.replayed_batches, 0u);  // checkpoint covered the journal
  EXPECT_EQ((*recovered)->engine()->log().ToCsvText(),
            ReferenceLog(4).ToCsvText());
  EXPECT_TRUE(SameExplanation(RecoveredExplanation(**recovered),
                              ReferenceExplanation(4)));
  // The recovered generation never reuses one an on-disk checkpoint names.
  EXPECT_GT((*recovered)->generation(), stats.checkpoint_generation);
}

TEST_F(RecoveryTest, KilledAtEveryKthByteRecoversEveryAcknowledgedAppend) {
  // Measure the write plane of one uncrashed run, then re-run it with the
  // plug pulled after every `step` bytes.
  std::uint64_t total_bytes = 0;
  {
    FaultFs fs;
    auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions(),
                                    RotationPolicy{}, nullptr, &fs);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    for (const auto& batch : batches_) {
      ASSERT_TRUE((*live)->AppendBatch(batch).ok());
    }
    ASSERT_TRUE((*live)->Rotate().ok());
    live->reset();
    total_bytes = fs.bytes_written();
  }
  ASSERT_GT(total_bytes, 0u);

  const std::uint64_t step = std::max<std::uint64_t>(1, total_bytes / 24);
  std::set<std::size_t> explanation_checked;
  for (std::uint64_t budget = 0; budget < total_bytes; budget += step) {
    SCOPED_TRACE("crash after " + std::to_string(budget) + " bytes");
    ResetDirs();
    std::size_t acked = 0;
    {
      FaultFs fs(budget);
      auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions(),
                                      RotationPolicy{}, nullptr, &fs);
      if (live.ok()) {
        for (const auto& batch : batches_) {
          if (!(*live)->AppendBatch(batch).ok()) break;
          ++acked;
        }
        // The rotation may crash mid-checkpoint; that must be survivable
        // too (its failure is fail-soft for the still-running engine).
        (void)(*live)->Rotate();
        live->reset();
      }
    }

    RecoveryStats stats;
    auto recovered = LiveEngine::Recover(
        seed_, Durability(), SerialOptions(), RotationPolicy{}, &stats);
    // Torn tails are never fatal: whatever the crash left behind must
    // recover cleanly...
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // ...and serve exactly the acknowledged prefix.
    EXPECT_EQ((*recovered)->engine()->log().ToCsvText(),
              ReferenceLog(acked).ToCsvText());

    // Explanations are bitwise identical to the uncrashed reference; the
    // log comparison above pins the data, this pins the serving surface
    // (once per distinct acknowledged prefix — the engine is
    // deterministic over a fixed log).
    if (explanation_checked.insert(acked).second) {
      EXPECT_TRUE(SameExplanation(RecoveredExplanation(**recovered),
                                  ReferenceExplanation(acked)));
    }
  }
}

TEST_F(RecoveryTest, CorruptionSweepRefusesLoudlyOrServesExactly) {
  {
    auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions());
    ASSERT_TRUE(live.ok());
    for (const auto& batch : batches_) {
      ASSERT_TRUE((*live)->AppendBatch(batch).ok());
    }
    ASSERT_TRUE((*live)->Rotate().ok());
  }
  const std::string reference = ReferenceLog(4).ToCsvText();

  // Keep a pristine copy: recovery legitimately mutates the directories
  // (tail truncation, fresh segments, a new checkpoint), so each
  // corruption trial starts from the same bytes.
  const std::string pristine = dir_ + "_pristine";
  std::filesystem::remove_all(pristine);
  std::filesystem::copy(dir_, pristine,
                        std::filesystem::copy_options::recursive);

  std::vector<std::string> targets;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(pristine)) {
    if (entry.is_regular_file()) {
      targets.push_back(
          std::filesystem::relative(entry.path(), pristine).string());
    }
  }
  ASSERT_FALSE(targets.empty());

  std::size_t refused = 0;
  for (const std::string& target : targets) {
    const std::uint64_t size =
        std::filesystem::file_size(pristine + "/" + target);
    for (std::uint64_t offset = 0; offset < size; offset += 17) {
      SCOPED_TRACE(target + " flipped at " + std::to_string(offset));
      std::filesystem::remove_all(dir_);
      std::filesystem::copy(pristine, dir_,
                            std::filesystem::copy_options::recursive);
      ASSERT_TRUE(CorruptFileByte(dir_ + "/" + target, offset).ok());

      auto recovered = LiveEngine::Recover(seed_, Durability(),
                                           SerialOptions());
      if (recovered.ok()) {
        // Surviving the flip is only legal when the answer is exact.
        EXPECT_EQ((*recovered)->engine()->log().ToCsvText(), reference);
      } else {
        ++refused;
        EXPECT_FALSE(recovered.status().message().empty());
      }
    }
  }
  // The sweep must actually have exercised the refusal path.
  EXPECT_GT(refused, 0u);
  std::filesystem::remove_all(pristine);
}

TEST_F(RecoveryTest, DeletedCheckpointPayloadRefusesLoudly) {
  {
    auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->AppendBatch(batches_[0]).ok());
    auto rotated = (*live)->Rotate();
    ASSERT_TRUE(rotated.ok());
    ASSERT_TRUE(rotated->checkpointed) << rotated->checkpoint_error;
  }
  // Drop every row frame of the checkpoint, keeping its magic, header
  // frame and end frame: the rows it claims are gone, and recovery must
  // say so rather than serve the seed plus the journal tail.
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/ckpt")) {
    names.push_back(entry.path().string());
  }
  ASSERT_EQ(names.size(), 1u);
  auto bytes = FileSystem::Default()->ReadFile(names[0]);
  ASSERT_TRUE(bytes.ok());
  std::string stripped = bytes->substr(0, 8);  // the magic
  for (std::size_t offset = 8; offset < bytes->size();) {
    const Frame frame = ReadFrame(*bytes, offset);
    ASSERT_EQ(frame.state, Frame::State::kWhole);
    if (frame.type != kFrameRecord) {
      stripped += bytes->substr(offset, frame.end - offset);
    }
    offset = frame.end;
  }
  ASSERT_LT(stripped.size(), bytes->size());
  std::ofstream(names[0], std::ios::binary | std::ios::trunc) << stripped;

  auto recovered = LiveEngine::Recover(seed_, Durability(), SerialOptions());
  ASSERT_FALSE(recovered.ok())
      << "served " << (*recovered)->engine()->log().size() << " rows";
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  EXPECT_NE(recovered.status().message().find(names[0]), std::string::npos)
      << recovered.status().ToString();
}

TEST_F(RecoveryTest, DeletedCheckpointRefusesLoudlyOrServesExactly) {
  // Default segments keep the covered batches in the active segment;
  // one-byte segments let the checkpoint truncate every batch it covers,
  // leaving only the drain-commit marker that names it.
  for (const std::uint64_t segment_bytes : {std::uint64_t{4} << 20,
                                            std::uint64_t{1}}) {
    SCOPED_TRACE("segment_bytes " + std::to_string(segment_bytes));
    ResetDirs();
    DurabilityOptions durability = Durability();
    durability.wal.segment_bytes = segment_bytes;
    {
      auto live = LiveEngine::Recover(seed_, durability, SerialOptions());
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      ASSERT_TRUE((*live)->AppendBatch(batches_[0]).ok());
      ASSERT_TRUE((*live)->AppendBatch(batches_[1]).ok());
      auto rotated = (*live)->Rotate();
      ASSERT_TRUE(rotated.ok());
      ASSERT_TRUE(rotated->checkpointed) << rotated->checkpoint_error;
    }
    std::size_t removed = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(durability.checkpoint_dir)) {
      removed += std::filesystem::remove_all(entry.path()) > 0 ? 1 : 0;
    }
    ASSERT_EQ(removed, 1u);
    auto recovered = LiveEngine::Recover(seed_, durability, SerialOptions());
    if (recovered.ok()) {
      EXPECT_EQ((*recovered)->engine()->log().ToCsvText(),
                ReferenceLog(2).ToCsvText());
    } else {
      EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
      EXPECT_FALSE(recovered.status().message().empty());
    }
  }
}

TEST_F(RecoveryTest, ParentFormatCheckpointDirectoryRefusesLoudly) {
  // The directory layout of earlier releases: checkpoint-NNNNNN/ holding
  // a text MANIFEST and log.csv. It is the newest generation, so loading
  // must fail loudly rather than skip it for the seed log.
  const std::string base = dir_ + "/ckpt/checkpoint-000005";
  ASSERT_TRUE(FileSystem::Default()->CreateDirs(base).ok());
  const std::string log_text = ReferenceLog(4).ToCsvText();
  char crc[9];
  std::snprintf(crc, sizeof(crc), "%08x",
                Crc32c(log_text.data(), log_text.size()));
  std::string manifest = "PXCKPT1\ngeneration 5\nwal_through 4\nfile log.csv " +
                         std::to_string(log_text.size()) + " " + crc + "\n";
  std::snprintf(crc, sizeof(crc), "%08x",
                Crc32c(manifest.data(), manifest.size()));
  manifest += std::string("manifest_crc ") + crc + "\n";
  std::ofstream(base + "/log.csv", std::ios::binary) << log_text;
  std::ofstream(base + "/MANIFEST", std::ios::binary) << manifest;

  auto recovered = LiveEngine::Recover(seed_, Durability(), SerialOptions());
  ASSERT_FALSE(recovered.ok())
      << "served " << (*recovered)->engine()->log().size() << " rows";
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  EXPECT_NE(recovered.status().message().find("checkpoint-000005"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST_F(RecoveryTest, RecoveredValuesMatchTheLiveLogBitForBit) {
  // Values a text rendering would bend: nominals that read back as
  // missing or need quoting, and doubles whose bits depend on printed
  // precision.
  const std::vector<std::string> nominals = {"", "?", "a,b", "say \"hi\"",
                                             "line\nbreak"};
  const std::vector<double> numbers = {
      std::numeric_limits<double>::quiet_NaN(),
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      4.9e-324,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      0.1,
      1e15 + 0.5};
  ExecutionLog seed(TinySchema());
  ASSERT_TRUE(seed.Add(TinyRecord("seed", 1.0, "red", 2.0)).ok());
  std::vector<ExecutionRecord> batch;
  for (std::size_t i = 0; i < numbers.size(); ++i) {
    batch.push_back(TinyRecord("v" + std::to_string(i), numbers[i],
                               nominals[i % nominals.size()],
                               numbers[numbers.size() - 1 - i]));
  }
  batch.push_back(ExecutionRecord(
      "missing", {Value::Missing(), Value::Missing(), Value::Number(3.0)}));

  ExecutionLog live_log;
  {
    auto live = LiveEngine::Recover(seed, Durability(), SerialOptions());
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE((*live)->AppendBatch(batch).ok());
    auto rotated = (*live)->Rotate();
    ASSERT_TRUE(rotated.ok());
    ASSERT_TRUE(rotated->checkpointed) << rotated->checkpoint_error;
    live_log = (*live)->engine()->log();
  }
  RecoveryStats stats;
  auto recovered = LiveEngine::Recover(seed, Durability(), SerialOptions(),
                                       RotationPolicy{}, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.replayed_batches, 0u);  // the checkpoint covers it all

  const ExecutionLog& log = (*recovered)->engine()->log();
  ASSERT_EQ(log.size(), live_log.size());
  for (std::size_t r = 0; r < log.size(); ++r) {
    ASSERT_EQ(log.at(r).id, live_log.at(r).id);
    for (std::size_t f = 0; f < log.schema().size(); ++f) {
      SCOPED_TRACE("row " + log.at(r).id + " feature " + std::to_string(f));
      const Value& got = log.at(r).values[f];
      const Value& want = live_log.at(r).values[f];
      ASSERT_EQ(got.kind(), want.kind());
      if (want.is_nominal()) {
        EXPECT_EQ(got.nominal(), want.nominal());
      } else if (want.is_numeric()) {
        const double a = got.number();
        const double b = want.number();
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
      }
    }
  }
}

TEST_F(RecoveryTest, WrongKindBatchInTheJournalIsRejectedOnReplay) {
  // A journal written before appends checked value kinds: the bad batch
  // is refused by replay's validated path, the next one is served.
  std::vector<ExecutionRecord> wrong_kind = batches_[0];
  wrong_kind[1].values[full_.schema().IndexOf("cause")] =
      Value::Nominal("oops");
  {
    auto wal = WalWriter::Open(dir_ + "/wal", WalOptions{});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->AppendBatch(wrong_kind).ok());
    ASSERT_TRUE((*wal)->AppendBatch(batches_[1]).ok());
  }
  RecoveryStats stats;
  auto recovered = LiveEngine::Recover(seed_, Durability(), SerialOptions(),
                                       RotationPolicy{}, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(stats.rejected_batches, 1u);
  EXPECT_EQ(stats.replayed_batches, 1u);
  const ExecutionLog& log = (*recovered)->engine()->log();
  EXPECT_EQ(log.size(), seed_.size() + batches_[1].size());
  for (const ExecutionRecord& record : batches_[1]) {
    EXPECT_TRUE(log.Find(record.id).ok()) << record.id;
  }
  EXPECT_FALSE(log.Find(wrong_kind[0].id).ok());
}

TEST_F(RecoveryTest, SequencesContinuePastAFullyTruncatedJournal) {
  // A checkpoint's truncation can delete every commit-bearing segment,
  // leaving a journal that remembers only a drain-commit marker. The
  // recovered writer must keep numbering batches past the checkpoint's
  // coverage: restarting from 1 would make the NEXT recovery silently
  // filter freshly acknowledged, fsynced batches out as already covered
  // by the checkpoint — the worst possible failure, quiet loss.
  DurabilityOptions durability = Durability();
  durability.wal.segment_bytes = 1;  // every append seals its own segment
  {
    auto live = LiveEngine::Recover(seed_, durability, SerialOptions());
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE((*live)->AppendBatch(batches_[0]).ok());
    ASSERT_TRUE((*live)->AppendBatch(batches_[1]).ok());
    auto rotated = (*live)->Rotate();
    ASSERT_TRUE(rotated.ok());
    ASSERT_TRUE(rotated->checkpointed) << rotated->checkpoint_error;
  }
  {
    RecoveryStats stats;
    auto live = LiveEngine::Recover(seed_, durability, SerialOptions(),
                                    RotationPolicy{}, &stats);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_TRUE(stats.checkpoint_loaded);
    EXPECT_EQ(stats.replayed_batches, 0u);
    ASSERT_TRUE((*live)->AppendBatch(batches_[2]).ok());
    ASSERT_TRUE((*live)->AppendBatch(batches_[3]).ok());
  }  // crash before any rotation: the new batches live only in the WAL
  RecoveryStats stats;
  auto recovered = LiveEngine::Recover(seed_, durability, SerialOptions(),
                                       RotationPolicy{}, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(stats.replayed_batches, 2u);
  EXPECT_EQ((*recovered)->engine()->log().ToCsvText(),
            ReferenceLog(4).ToCsvText());
}

TEST_F(RecoveryTest, RecoveryHonoursCancellation) {
  {
    auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->AppendBatch(batches_[0]).ok());
  }
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  ExecContext context;
  context.cancel = token;
  ScopedExecContext scoped(&context);
  auto recovered = LiveEngine::Recover(seed_, Durability(), SerialOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCancelled);
}

TEST_F(RecoveryTest, CheckpointOnlyRecoveryHonoursCancellation) {
  {
    auto live = LiveEngine::Recover(seed_, Durability(), SerialOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->AppendBatch(batches_[0]).ok());
    auto rotated = (*live)->Rotate();
    ASSERT_TRUE(rotated.ok());
    ASSERT_TRUE(rotated->checkpointed) << rotated->checkpoint_error;
  }
  DurabilityOptions checkpoint_only;
  checkpoint_only.checkpoint_dir = Durability().checkpoint_dir;
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  ExecContext context;
  context.cancel = token;
  ScopedExecContext scoped(&context);
  auto recovered =
      LiveEngine::Recover(seed_, checkpoint_only, SerialOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace perfxplain
