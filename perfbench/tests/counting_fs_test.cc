#include "counting_fs.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "log/catalog.h"
#include "serving/live_engine.h"
#include "simulator/trace_generator.h"

namespace perfbench {
namespace {

namespace px = perfxplain;
namespace stdfs = std::filesystem;

class CountingFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (stdfs::temp_directory_path() /
            ("perfbench_counting_fs_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CountingFsTest, BytesPassThroughUnchanged) {
  CountingFileSystem fs;
  const std::size_t domain = fs.AddDomain(dir_ + "/a");
  ASSERT_TRUE(fs.CreateDirs(dir_ + "/a").ok());
  std::string payload;
  for (int i = 0; i < 4096; ++i) payload += static_cast<char>(i * 7 + 3);
  {
    auto file = fs.OpenForAppend(dir_ + "/a/f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(payload.substr(0, 1000)).ok());
    ASSERT_TRUE((*file)->Append(payload.substr(1000)).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  // Read through the undecorated file system: what reached the disk is
  // exactly what was appended.
  auto direct = px::FileSystem::Default()->ReadFile(dir_ + "/a/f");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct, payload);
  auto counted = fs.ReadFile(dir_ + "/a/f");
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(*counted, payload);

  const StorageCounters c = fs.Counters(domain);
  EXPECT_EQ(c.appends, 2u);
  EXPECT_EQ(c.bytes_written, payload.size());
  EXPECT_EQ(c.fsyncs, 1u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.bytes_read, payload.size());
  EXPECT_EQ(fs.FsyncSamples(domain).size(), 1u);
  EXPECT_EQ(fs.Counters(fs.other_domain()).bytes_written, 0u);
}

TEST_F(CountingFsTest, PathsOutsideEveryDomainCountAsOther) {
  CountingFileSystem fs;
  const std::size_t domain = fs.AddDomain(dir_ + "/wal");
  ASSERT_TRUE(fs.CreateDirs(dir_ + "/wal").ok());
  // A sibling whose name merely starts with the domain's name.
  auto file = fs.OpenForAppend(dir_ + "/wal2");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("xyz").ok());
  EXPECT_EQ(fs.Counters(domain).bytes_written, 0u);
  EXPECT_EQ(fs.Counters(fs.other_domain()).bytes_written, 3u);
  EXPECT_EQ(fs.Total().bytes_written, 3u);
}

TEST_F(CountingFsTest, FsyncEveryBatchSyncsAtLeastOncePerAcknowledgedBatch) {
  px::TraceOptions options;
  options.jobs = px::MakeTable2Grid();
  options.jobs.resize(6);
  auto trace = px::GenerateTrace(options);
  ASSERT_TRUE(trace.ok());
  const px::ExecutionLog& tasks = trace->task_log;
  ASSERT_GT(tasks.size(), 20u);

  px::ExecutionLog seed(tasks.schema());
  for (std::size_t i = 0; i < 10; ++i) ASSERT_TRUE(seed.Add(tasks.at(i)).ok());

  CountingFileSystem fs;
  px::DurabilityOptions durability;
  durability.wal_dir = dir_ + "/wal";
  durability.checkpoint_dir = dir_ + "/ckpt";
  durability.wal.fsync = px::FsyncMode::kEveryBatch;
  const std::size_t wal = fs.AddDomain(durability.wal_dir);
  px::EngineOptions engine_options;
  engine_options.explainer.threads = 1;
  engine_options.sim_but_diff.threads = 1;
  auto live = px::LiveEngine::Recover(seed, durability, engine_options,
                                      px::RotationPolicy{}, nullptr, &fs);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  std::size_t acknowledged = 0;
  for (std::size_t i = 10; i + 2 <= tasks.size() && acknowledged < 8; i += 2) {
    const StorageCounters before = fs.Counters(wal);
    ASSERT_TRUE((*live)->AppendBatch({tasks.at(i), tasks.at(i + 1)}).ok());
    ++acknowledged;
    EXPECT_GE((fs.Counters(wal) - before).fsyncs, 1u);
  }
  EXPECT_GE(fs.Counters(wal).fsyncs, acknowledged);
  EXPECT_GT(fs.Counters(wal).bytes_written, 0u);
}

}  // namespace
}  // namespace perfbench
