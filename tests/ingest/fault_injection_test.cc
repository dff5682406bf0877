// Fault-injection sweep over the untrusted ingest boundary: corrupted
// job-history and Ganglia-dump text — truncations, bit flips, deleted,
// duplicated and garbage lines, dropped headers — must never crash the
// ingesters. The same sweep runs against the durability artifacts (WAL
// segments and checkpoint manifests): replay and checkpoint loading
// either still answer exactly or surface a clean, non-empty Status.
// Run under ASan/UBSan in CI, this is the "no crash on any input"
// contract of docs/ARCHITECTURE.md's error-handling section.

#include "ingest/ingest.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "ingest/ganglia_dump.h"
#include "ingest/hadoop_history.h"
#include "log/catalog.h"
#include "simulator/trace_generator.h"
#include "storage/checkpoint.h"
#include "storage/file_io.h"
#include "storage/wal.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

constexpr double kEpoch = 1323150000.0;

SimJob SimulateSmallJob(std::uint64_t seed = 17) {
  ClusterConfig cluster;
  ExciteStats stats;
  SimCostModel costs;
  JobConfig config;
  config.job_id = "job_fault";
  config.num_instances = 2;
  config.input_size_bytes = 512.0 * 1024 * 1024;
  config.block_size_bytes = 64.0 * 1024 * 1024;
  config.reduce_tasks_factor = 1.5;
  config.pig_script = "simple-groupby.pig";
  Rng rng(seed);
  return SimulateJob(config, cluster, stats, costs, rng).value();
}

/// One deterministic corruption of `text`, selected by `kind` and
/// positioned by `rng`.
std::string Corrupt(const std::string& text, int kind, Rng& rng) {
  if (text.empty()) return text;
  switch (kind) {
    case 0: {  // truncate mid-stream
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(text.size()) - 1));
      return text.substr(0, at);
    }
    case 1: {  // flip one byte to an arbitrary value (NUL included)
      std::string out = text;
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(out.size()) - 1));
      out[at] = static_cast<char>(rng.UniformInt(0, 255));
      return out;
    }
    case 2:    // delete a line
    case 3:    // duplicate a line
    case 4: {  // replace a line with garbage
      std::vector<std::string> lines = Split(text, '\n');
      const std::size_t at = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(lines.size()) - 1));
      if (kind == 2) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (kind == 3) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
      } else {
        lines[at] = "\x01garbage \"unterminated, \xff\xfe not,csv";
      }
      return Join(lines, "\n");
    }
    default: {  // drop the first line (the Ganglia header / history Meta)
      const std::size_t newline = text.find('\n');
      return newline == std::string::npos ? std::string()
                                          : text.substr(newline + 1);
    }
  }
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : job_log_(MakeJobSchema()), task_log_(MakeTaskSchema()) {}

  /// Ingests the pair of texts into fresh logs; the only failure mode this
  /// suite accepts is a clean Status with a message.
  void ExpectNoCrash(const std::string& history, const std::string& ganglia,
                     const std::string& label) {
    ExecutionLog job_log(MakeJobSchema());
    ExecutionLog task_log(MakeTaskSchema());
    const Status status = IngestJob(history, ganglia, job_log, task_log);
    if (!status.ok()) {
      EXPECT_FALSE(status.message().empty()) << label;
      EXPECT_NE(status.code(), StatusCode::kInternal)
          << label << ": " << status.ToString();
    }
  }

  ExecutionLog job_log_;
  ExecutionLog task_log_;
};

TEST_F(FaultInjectionTest, CorruptedHistorySurvivesSweep) {
  const SimJob job = SimulateSmallJob();
  const std::string history = WriteJobHistory(job, kEpoch);
  const std::string ganglia = WriteGangliaDump(job, kEpoch);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int kind = 0; kind <= 5; ++kind) {
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(kind));
      ExpectNoCrash(Corrupt(history, kind, rng), ganglia,
                    "history kind " + std::to_string(kind) + " seed " +
                        std::to_string(seed));
    }
  }
}

TEST_F(FaultInjectionTest, CorruptedGangliaSurvivesSweep) {
  const SimJob job = SimulateSmallJob();
  const std::string history = WriteJobHistory(job, kEpoch);
  const std::string ganglia = WriteGangliaDump(job, kEpoch);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int kind = 0; kind <= 5; ++kind) {
      Rng rng(seed * 2000 + static_cast<std::uint64_t>(kind));
      ExpectNoCrash(history, Corrupt(ganglia, kind, rng),
                    "ganglia kind " + std::to_string(kind) + " seed " +
                        std::to_string(seed));
    }
  }
}

TEST_F(FaultInjectionTest, BothStreamsCorruptedTogether) {
  const SimJob job = SimulateSmallJob();
  const std::string history = WriteJobHistory(job, kEpoch);
  const std::string ganglia = WriteGangliaDump(job, kEpoch);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const int history_kind = static_cast<int>(rng.UniformInt(0, 5));
    const int ganglia_kind = static_cast<int>(rng.UniformInt(0, 5));
    ExpectNoCrash(Corrupt(history, history_kind, rng),
                  Corrupt(ganglia, ganglia_kind, rng),
                  "seed " + std::to_string(seed));
  }
}

TEST_F(FaultInjectionTest, PureGarbageStreams) {
  const std::vector<std::string> garbage = {
      "",
      std::string("\0\0\0\0", 4),
      std::string(4096, '\xff'),
      "Task Task Task",
      "instance,hostname,time,metric,value",  // header only, no newline
      "\n\n\n\n",
      "Job JOBID=\"",  // cut mid-attribute
  };
  for (std::size_t h = 0; h < garbage.size(); ++h) {
    for (std::size_t g = 0; g < garbage.size(); ++g) {
      ExpectNoCrash(garbage[h], garbage[g],
                    "garbage " + std::to_string(h) + "/" + std::to_string(g));
    }
  }
}

TEST_F(FaultInjectionTest, FailingReaderSurfacesIoError) {
  // Missing file: clean IoError, nothing appended.
  const Status missing =
      IngestJobFiles("/nonexistent/px/history.log",
                     "/nonexistent/px/ganglia.csv", job_log_, task_log_);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kIoError);
  EXPECT_EQ(job_log_.size(), 0u);
  EXPECT_EQ(task_log_.size(), 0u);

  // Valid history, missing ganglia: the second read fails cleanly too.
  const SimJob job = SimulateSmallJob();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("px_fault_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string history_path = (dir / "history.log").string();
  {
    std::ofstream history(history_path);
    history << WriteJobHistory(job, kEpoch);
  }
  const Status half = IngestJobFiles(history_path,
                                     (dir / "missing.csv").string(),
                                     job_log_, task_log_);
  ASSERT_FALSE(half.ok());
  EXPECT_EQ(half.code(), StatusCode::kIoError);
  EXPECT_EQ(job_log_.size(), 0u);
  std::filesystem::remove_all(dir);
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(FaultInjectionTest, CorruptedWalSegmentSurvivesSweep) {
  // Journal the adversarial logs (awkward payloads: commas, quotes,
  // missing values, giant dictionaries) and run the same corruption
  // matrix over the segment bytes. Replay must never crash and never
  // fabricate a record: whatever it returns was journaled verbatim.
  const std::string dir = ::testing::TempDir() + "px_fault_wal";
  ASSERT_TRUE(FileSystem::Default()->RemoveAll(dir).ok());
  std::set<std::string> journaled_ids;
  {
    auto writer = WalWriter::Open(dir, WalOptions{});
    ASSERT_TRUE(writer.ok());
    for (const auto& spec : perfxplain::testing::AdversarialLogSpecs()) {
      const ExecutionLog log = perfxplain::testing::AdversarialLog(spec);
      std::vector<ExecutionRecord> batch = log.records();
      for (ExecutionRecord& record : batch) {
        record.id = spec.name + "/" + record.id;  // unique across specs
        journaled_ids.insert(record.id);
      }
      ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
    }
  }
  const std::string segment = dir + "/" + WalSegmentFileName(1);
  auto pristine = FileSystem::Default()->ReadFile(segment);
  ASSERT_TRUE(pristine.ok());

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int kind = 0; kind <= 5; ++kind) {
      const std::string label =
          "wal kind " + std::to_string(kind) + " seed " +
          std::to_string(seed);
      Rng rng(seed * 3000 + static_cast<std::uint64_t>(kind));
      WriteBytes(segment, Corrupt(*pristine, kind, rng));
      auto replay = WalReader::Replay(dir);
      if (replay.ok()) {
        for (const WalBatch& batch : replay->batches) {
          for (const ExecutionRecord& record : batch.records) {
            EXPECT_TRUE(journaled_ids.count(record.id) > 0)
                << label << ": fabricated record '" << record.id << "'";
          }
        }
      } else {
        EXPECT_FALSE(replay.status().message().empty()) << label;
        EXPECT_NE(replay.status().code(), StatusCode::kInternal)
            << label << ": " << replay.status().ToString();
      }
    }
  }
}

TEST_F(FaultInjectionTest, CorruptedCheckpointSurvivesSweep) {
  // Same matrix over the checkpoint file. Loading it answers with the
  // exact bytes that were checkpointed or refuses cleanly — a corrupted
  // checkpoint must never decode into a different log.
  const std::string dir = ::testing::TempDir() + "px_fault_ckpt";
  ASSERT_TRUE(FileSystem::Default()->RemoveAll(dir).ok());
  const ExecutionLog log = perfxplain::testing::AdversarialLog(
      perfxplain::testing::AdversarialLogSpecs().front());
  ASSERT_TRUE(SnapshotCheckpoint::Write(dir, ColumnarLog(log), 3, 5).ok());
  const std::string reference = log.ToCsvText();

  const std::string path = dir + "/" + CheckpointFileName(3);
  auto pristine = FileSystem::Default()->ReadFile(path);
  ASSERT_TRUE(pristine.ok());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int kind = 0; kind <= 5; ++kind) {
      const std::string label =
          "kind " + std::to_string(kind) + " seed " + std::to_string(seed);
      Rng rng(seed * 4000 + static_cast<std::uint64_t>(kind));
      WriteBytes(path, Corrupt(*pristine, kind, rng));
      auto loaded = SnapshotCheckpoint::LoadLatest(dir);
      if (loaded.ok()) {
        EXPECT_EQ(loaded->log.ToCsvText(), reference) << label;
        EXPECT_EQ(loaded->generation, 3u) << label;
      } else {
        EXPECT_FALSE(loaded.status().message().empty()) << label;
        EXPECT_NE(loaded.status().code(), StatusCode::kInternal)
            << label << ": " << loaded.status().ToString();
      }
    }
  }
  WriteBytes(path, *pristine);
}

}  // namespace
}  // namespace perfxplain
