// The write side of live ingest: DeltaLog appends validate against the
// schema and the pending set, batches are all-or-nothing, and the
// three-phase drain protocol keeps draining ids reserved so a duplicate
// can never slip in between a snapshot swap and the delta commit.

#include "serving/delta_log.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::TinyRecord;
using perfxplain::testing::TinySchema;

class DeltaLogTest : public ::testing::Test {
 protected:
  DeltaLogTest() : delta_(TinySchema()) {}

  static ExecutionRecord Record(const std::string& id) {
    return TinyRecord(id, 1.0, "red", 100.0);
  }

  DeltaLog delta_;
};

TEST_F(DeltaLogTest, AppendStagesAndCounts) {
  EXPECT_EQ(delta_.pending_rows(), 0u);
  EXPECT_TRUE(delta_.Append(Record("a")).ok());
  EXPECT_TRUE(delta_.Append(Record("b")).ok());
  EXPECT_EQ(delta_.pending_rows(), 2u);
  EXPECT_TRUE(delta_.Contains("a"));
  EXPECT_FALSE(delta_.Contains("c"));
  EXPECT_GE(delta_.oldest_pending_age_ms(), 0);
}

TEST_F(DeltaLogTest, AppendValidates) {
  // Empty id.
  ExecutionRecord empty_id = Record("");
  EXPECT_EQ(delta_.Append(empty_id).code(), StatusCode::kInvalidArgument);
  // Arity mismatch.
  ExecutionRecord short_record("short", {Value::Number(1.0)});
  EXPECT_EQ(delta_.Append(std::move(short_record)).code(),
            StatusCode::kInvalidArgument);
  // Wrong kind: ExecutionLog::Add would refuse it at promotion.
  ExecutionRecord wrong_kind("wrong", {Value::Nominal("oops"),
                                       Value::Nominal("red"),
                                       Value::Number(1.0)});
  EXPECT_EQ(delta_.Append(std::move(wrong_kind)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(delta_.Contains("wrong"));
  // Duplicate pending id.
  EXPECT_TRUE(delta_.Append(Record("dup")).ok());
  EXPECT_EQ(delta_.Append(Record("dup")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(delta_.pending_rows(), 1u);
}

TEST_F(DeltaLogTest, BatchAppendIsAllOrNothing) {
  EXPECT_TRUE(delta_.Append(Record("staged")).ok());
  // A batch containing a record that collides with the pending set leaves
  // nothing behind.
  std::vector<ExecutionRecord> bad = {Record("x"), Record("staged")};
  EXPECT_EQ(delta_.AppendBatch(std::move(bad)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(delta_.pending_rows(), 1u);
  EXPECT_FALSE(delta_.Contains("x"));
  // So does an intra-batch duplicate.
  std::vector<ExecutionRecord> twice = {Record("y"), Record("y")};
  EXPECT_EQ(delta_.AppendBatch(std::move(twice)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(delta_.Contains("y"));
  // A clean batch lands whole.
  std::vector<ExecutionRecord> good = {Record("p"), Record("q")};
  EXPECT_TRUE(delta_.AppendBatch(std::move(good)).ok());
  EXPECT_EQ(delta_.pending_rows(), 3u);
}

TEST_F(DeltaLogTest, DrainCommitDropsExactlyTheDrainedPrefix) {
  EXPECT_TRUE(delta_.Append(Record("a")).ok());
  EXPECT_TRUE(delta_.Append(Record("b")).ok());
  std::vector<ExecutionRecord> drained = delta_.BeginDrain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].id, "a");
  EXPECT_EQ(drained[1].id, "b");
  // Draining ids stay reserved: the duplicate-race window is closed.
  EXPECT_EQ(delta_.Append(Record("a")).code(),
            StatusCode::kInvalidArgument);
  // New appends queue behind the draining prefix.
  EXPECT_TRUE(delta_.Append(Record("c")).ok());
  EXPECT_EQ(delta_.pending_rows(), 3u);
  delta_.CommitDrain();
  EXPECT_EQ(delta_.pending_rows(), 1u);
  EXPECT_FALSE(delta_.Contains("a"));
  EXPECT_TRUE(delta_.Contains("c"));
}

TEST_F(DeltaLogTest, DrainAbortKeepsEverything) {
  EXPECT_TRUE(delta_.Append(Record("a")).ok());
  std::vector<ExecutionRecord> drained = delta_.BeginDrain();
  ASSERT_EQ(drained.size(), 1u);
  delta_.AbortDrain();
  EXPECT_EQ(delta_.pending_rows(), 1u);
  EXPECT_TRUE(delta_.Contains("a"));
  // The next drain retries the same records.
  std::vector<ExecutionRecord> retried = delta_.BeginDrain();
  ASSERT_EQ(retried.size(), 1u);
  EXPECT_EQ(retried[0].id, "a");
  delta_.CommitDrain();
  EXPECT_EQ(delta_.pending_rows(), 0u);
}

TEST_F(DeltaLogTest, ConcurrentAppendsAllLandExactlyOnce) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(delta_.Append(Record(id)).ok());
        // A racing duplicate of our own id must always be rejected.
        ASSERT_FALSE(delta_.Append(Record(id)).ok());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(delta_.pending_rows(),
            static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<ExecutionRecord> drained = delta_.BeginDrain();
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(kThreads * kPerThread));
  delta_.CommitDrain();
  EXPECT_EQ(delta_.pending_rows(), 0u);
}

}  // namespace
}  // namespace perfxplain
