#include "log/execution_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "common/csv.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::TinyRecord;
using perfxplain::testing::TinySchema;

ExecutionLog MakeLog(int n) {
  ExecutionLog log(TinySchema());
  for (int i = 0; i < n; ++i) {
    PX_CHECK(log.Add(TinyRecord("r" + std::to_string(i), i,
                                i % 2 == 0 ? "red" : "blue", 10.0 * i))
                 .ok());
  }
  return log;
}

TEST(ExecutionLogTest, AddAndFind) {
  ExecutionLog log = MakeLog(3);
  EXPECT_EQ(log.size(), 3u);
  auto index = log.Find("r1");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(log.at(index.value()).id, "r1");
  EXPECT_FALSE(log.Find("r9").ok());
}

TEST(ExecutionLogTest, ValueAt) {
  ExecutionLog log = MakeLog(2);
  EXPECT_EQ(log.ValueAt(1, 0), Value::Number(1));
  EXPECT_EQ(log.ValueAt(1, 1), Value::Nominal("blue"));
  EXPECT_EQ(log.ValueAt(1, 2), Value::Number(10));
}

TEST(ExecutionLogTest, RejectsWrongArity) {
  ExecutionLog log(TinySchema());
  const Status status =
      log.Add(ExecutionRecord("x", {Value::Number(1), Value::Number(2)}));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(log.size(), 0u);
}

TEST(ExecutionLogTest, RejectsDuplicateId) {
  ExecutionLog log = MakeLog(1);
  EXPECT_FALSE(log.Add(TinyRecord("r0", 5, "red", 1)).ok());
}

TEST(ExecutionLogTest, RejectsWrongValueKind) {
  ExecutionLog log(TinySchema());
  const Status status = log.Add(ExecutionRecord(
      "x", {Value::Nominal("oops"), Value::Nominal("red"), Value::Number(1)}));
  EXPECT_FALSE(status.ok());
}

TEST(ExecutionLogTest, MissingValuesAreAllowedAnywhere) {
  ExecutionLog log(TinySchema());
  EXPECT_TRUE(log.Add(ExecutionRecord("x", {Value::Missing(),
                                            Value::Missing(),
                                            Value::Missing()}))
                  .ok());
}

TEST(ExecutionLogTest, FilterKeepsSchemaAndMatching) {
  ExecutionLog log = MakeLog(10);
  ExecutionLog evens = log.Filter([](const ExecutionRecord& record) {
    return record.values[1] == Value::Nominal("red");
  });
  EXPECT_EQ(evens.size(), 5u);
  EXPECT_TRUE(evens.schema() == log.schema());
  EXPECT_TRUE(evens.Find("r0").ok());
  EXPECT_FALSE(evens.Find("r1").ok());
}

TEST(ExecutionLogTest, RandomSplitPartitions) {
  ExecutionLog log = MakeLog(200);
  Rng rng(5);
  auto [first, second] = log.RandomSplit(0.5, rng);
  EXPECT_EQ(first.size() + second.size(), log.size());
  EXPECT_GT(first.size(), 60u);
  EXPECT_GT(second.size(), 60u);
  for (const auto& record : first.records()) {
    EXPECT_FALSE(second.Find(record.id).ok());
  }
}

TEST(ExecutionLogTest, RandomSplitDeterministicGivenSeed) {
  ExecutionLog log = MakeLog(50);
  Rng rng1(9);
  Rng rng2(9);
  auto split1 = log.RandomSplit(0.5, rng1);
  auto split2 = log.RandomSplit(0.5, rng2);
  ASSERT_EQ(split1.first.size(), split2.first.size());
  for (std::size_t i = 0; i < split1.first.size(); ++i) {
    EXPECT_EQ(split1.first.at(i).id, split2.first.at(i).id);
  }
}

TEST(ExecutionLogTest, EnsureRecordsCopiesMissing) {
  ExecutionLog log = MakeLog(10);
  ExecutionLog subset = log.Filter(
      [](const ExecutionRecord& record) { return record.id == "r0"; });
  ASSERT_TRUE(subset.EnsureRecords(log, {"r3", "r0"}).ok());
  EXPECT_EQ(subset.size(), 2u);
  EXPECT_TRUE(subset.Find("r3").ok());
  EXPECT_FALSE(subset.EnsureRecords(log, {"r99"}).ok());
}

TEST(ExecutionLogTest, EnsureRecordsRejectsSchemaMismatch) {
  ExecutionLog log = MakeLog(2);
  Schema other;
  PX_CHECK(other.Add("z", ValueKind::kNumeric).ok());
  ExecutionLog different(other);
  EXPECT_FALSE(log.EnsureRecords(different, {"x"}).ok());
}

TEST(ExecutionLogTest, CsvRoundTripKeepsEveryValue) {
  using Limits = std::numeric_limits<double>;
  const std::vector<Value> nominals = {
      Value::Nominal(""),          Value::Nominal("?"),
      Value::Nominal("a,b"),       Value::Nominal("say \"hi\""),
      Value::Nominal("line\nbreak"), Value::Missing()};
  const std::vector<Value> numbers = {
      Value::Number(-0.0),          Value::Number(Limits::infinity()),
      Value::Number(-Limits::infinity()), Value::Number(4.9e-324),
      Value::Number(Limits::max()), Value::Number(-Limits::max()),
      Value::Number(0.1),           Value::Missing(),
      Value::Number(Limits::quiet_NaN())};
  Schema schema;
  ASSERT_TRUE(schema.Add("number", ValueKind::kNumeric).ok());
  ASSERT_TRUE(schema.Add("name", ValueKind::kNominal).ok());
  ExecutionLog log(schema);
  const std::size_t rows = std::max(nominals.size(), numbers.size());
  for (std::size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(log.Add(ExecutionRecord(
                            "r" + std::to_string(r),
                            {numbers[r % numbers.size()],
                             nominals[r % nominals.size()]}))
                    .ok());
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("px_log_roundtrip_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ASSERT_TRUE(log.SaveCsv(path).ok());
  auto loaded = ExecutionLog::LoadCsv(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), log.size());
  for (std::size_t r = 0; r < log.size(); ++r) {
    EXPECT_EQ(loaded->at(r).id, log.at(r).id);
    const Value& number = log.at(r).values[0];
    const Value& read = loaded->at(r).values[0];
    ASSERT_EQ(read.kind(), number.kind()) << "row " << r;
    if (number.is_numeric() && std::isnan(number.number())) {
      EXPECT_TRUE(std::isnan(read.number())) << "row " << r;
    } else if (number.is_numeric()) {
      const double expected = number.number();
      const double actual = read.number();
      EXPECT_EQ(std::memcmp(&actual, &expected, sizeof expected), 0)
          << "row " << r << ": " << actual << " vs " << expected;
    }
    EXPECT_EQ(loaded->at(r).values[1], log.at(r).values[1]) << "row " << r;
  }
  EXPECT_EQ(loaded->ToCsvText(), log.ToCsvText());
}

class ExecutionLogCsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("px_log_test_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(ExecutionLogCsvTest, SaveLoadRoundTrip) {
  ExecutionLog log = MakeLog(5);
  PX_CHECK(log.Add(ExecutionRecord("rm", {Value::Missing(),
                                          Value::Nominal("red"),
                                          Value::Number(1.5)}))
               .ok());
  ASSERT_TRUE(log.SaveCsv(path_).ok());
  auto loaded = ExecutionLog::LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->schema() == log.schema());
  ASSERT_EQ(loaded->size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(loaded->at(i).id, log.at(i).id);
    EXPECT_EQ(loaded->at(i).values, log.at(i).values) << log.at(i).id;
  }
}

TEST_F(ExecutionLogCsvTest, LoadRejectsMalformedHeader) {
  std::ofstream out(path_);
  out << "wrong,header\nnumeric,numeric\n";
  out.close();
  EXPECT_FALSE(ExecutionLog::LoadCsv(path_).ok());
}

TEST_F(ExecutionLogCsvTest, LoadRejectsUnknownKind) {
  std::ofstream out(path_);
  out << "id,x\nid,floating\nr0,1\n";
  out.close();
  EXPECT_FALSE(ExecutionLog::LoadCsv(path_).ok());
}

TEST_F(ExecutionLogCsvTest, LoadRejectsWrongArityRow) {
  std::ofstream out(path_);
  out << "id,x\nid,numeric\nr0,1,extra\n";
  out.close();
  EXPECT_FALSE(ExecutionLog::LoadCsv(path_).ok());
}

TEST_F(ExecutionLogCsvTest, LoadRejectsTooFewRows) {
  std::ofstream out(path_);
  out << "id,x\n";
  out.close();
  EXPECT_FALSE(ExecutionLog::LoadCsv(path_).ok());
}

}  // namespace
}  // namespace perfxplain
