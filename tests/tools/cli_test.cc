#include "cli.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include <fstream>

#include "core/pair_enumeration.h"
#include "ingest/ganglia_dump.h"
#include "ingest/hadoop_history.h"
#include "pxql/templates.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

namespace px = perfxplain;

int RunCli(const std::vector<std::string>& args, std::string* output) {
  std::ostringstream out;
  const int code = cli::Run(args, out);
  *output = out.str();
  return code;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("px_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes a causal log CSV and returns its path plus a valid query.
  std::string WriteCausalLog(Query* query) {
    const ExecutionLog log = testing::CausalLog(80, 31);
    const std::string path = (dir_ / "log.csv").string();
    PX_CHECK(log.SaveCsv(path).ok());
    Query q = testing::GtVsSimQuery();
    auto poi = reference::FindPairOfInterest(log, q);
    PX_CHECK(poi.ok());
    q.first_id = log.at(poi->first).id;
    q.second_id = log.at(poi->second).id;
    *query = q;
    return path;
  }

  std::string QueryText(const Query& query) {
    return "FOR J1, J2 WHERE J1.JobID = '" + query.first_id +
           "' AND J2.JobID = '" + query.second_id +
           "' OBSERVED duration_compare = GT "
           "EXPECTED duration_compare = SIM";
  }

  std::filesystem::path dir_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  std::string output;
  EXPECT_EQ(RunCli({"help"}, &output), 0);
  EXPECT_NE(output.find("usage:"), std::string::npos);
  EXPECT_NE(output.find("PXQL"), std::string::npos);
}

TEST_F(CliTest, NoCommandFails) {
  std::string output;
  EXPECT_EQ(RunCli({}, &output), 1);
  EXPECT_NE(output.find("error"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string output;
  EXPECT_EQ(RunCli({"frobnicate"}, &output), 1);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesCsvs) {
  std::string output;
  EXPECT_EQ(RunCli({"generate", "--out", dir_.string(), "--jobs", "4",
                    "--seed", "7"},
                   &output),
            0);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "job_log.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "task_log.csv"));
  EXPECT_NE(output.find("4 jobs"), std::string::npos);
}

TEST_F(CliTest, GenerateRequiresOut) {
  std::string output;
  EXPECT_EQ(RunCli({"generate"}, &output), 1);
  EXPECT_NE(output.find("--out"), std::string::npos);
}

TEST_F(CliTest, InfoSummarizesLog) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"info", "--log", path}, &output), 0);
  EXPECT_NE(output.find("80 records"), std::string::npos);
  EXPECT_NE(output.find("duration"), std::string::npos);
  EXPECT_NE(output.find("cause (numeric)"), std::string::npos);
}

TEST_F(CliTest, InfoMissingFileFails) {
  std::string output;
  EXPECT_EQ(RunCli({"info", "--log", "/no/such/file.csv"}, &output), 1);
}

TEST_F(CliTest, ExplainProducesExplanationAndMetrics) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--width", "2"},
                   &output),
            0);
  EXPECT_NE(output.find("BECAUSE"), std::string::npos);
  EXPECT_NE(output.find("precision"), std::string::npos);
}

TEST_F(CliTest, ExplainProseFlagAddsEnglish) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--prose"},
                   &output),
            0);
  EXPECT_NE(output.find("most likely because"), std::string::npos);
}

TEST_F(CliTest, ExplainWithBaselineTechniques) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  for (const char* technique : {"ruleofthumb", "simbutdiff"}) {
    std::string output;
    EXPECT_EQ(RunCli({"explain", "--log", path, "--query",
                      QueryText(query), "--technique", technique},
                     &output),
              0)
        << technique << ": " << output;
    EXPECT_NE(output.find("BECAUSE"), std::string::npos) << technique;
  }
}

TEST_F(CliTest, ExplainRejectsUnknownTechnique) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--technique", "oracle"},
                   &output),
            1);
  EXPECT_NE(output.find("unknown technique"), std::string::npos);
}

TEST_F(CliTest, ExplainRejectsBadQuery) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", "OBSERVED oops"},
                   &output),
            1);
  EXPECT_NE(output.find("error"), std::string::npos);
}

TEST_F(CliTest, ExplainAutoDespite) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--auto-despite"},
                   &output),
            0);
  EXPECT_NE(output.find("BECAUSE"), std::string::npos);
}

TEST_F(CliTest, DespiteCommandGeneratesClause) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"despite", "--log", path, "--query", QueryText(query)},
                   &output),
            0);
  EXPECT_NE(output.find("DESPITE"), std::string::npos);
}

TEST_F(CliTest, IngestRawArtifactsProducesQueryableLogs) {
  // Simulate one job, export its raw history + ganglia artifacts, ingest
  // them through the CLI, and check the resulting CSVs load.
  px::ClusterConfig cluster;
  px::ExciteStats stats;
  px::SimCostModel costs;
  px::JobConfig config;
  config.job_id = "job_cli";
  config.num_instances = 2;
  config.input_size_bytes = 256.0 * 1024 * 1024;
  config.block_size_bytes = 64.0 * 1024 * 1024;
  px::Rng rng(3);
  const px::SimJob job =
      px::SimulateJob(config, cluster, stats, costs, rng).value();
  const std::string history_path = (dir_ / "history.log").string();
  const std::string ganglia_path = (dir_ / "ganglia.csv").string();
  {
    std::ofstream history(history_path);
    history << px::WriteJobHistory(job, 0.0);
    std::ofstream ganglia(ganglia_path);
    ganglia << px::WriteGangliaDump(job, 0.0);
  }
  std::string output;
  EXPECT_EQ(RunCli({"ingest", "--history", history_path, "--ganglia",
                    ganglia_path, "--out", dir_.string()},
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("1 jobs"), std::string::npos);
  auto job_log =
      px::ExecutionLog::LoadCsv((dir_ / "job_log.csv").string());
  ASSERT_TRUE(job_log.ok());
  EXPECT_TRUE(job_log->Find("job_cli").ok());
}

TEST_F(CliTest, ExplainAcceptsUnfiredDeadline) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--deadline-ms", "60000"},
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("BECAUSE"), std::string::npos);
}

TEST_F(CliTest, ExplainRejectedByAdmissionControl) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  // The 80-record log enumerates 80·79 = 6320 candidate pairs. Admission
  // rejection exits with the kResourceExhausted code (5), not generic 1,
  // so callers can tell a budget problem from a bad query.
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--max-candidate-pairs", "100"},
                   &output),
            5);
  // One-line error naming the code, the estimate and the tripped limit.
  EXPECT_NE(output.find("error"), std::string::npos) << output;
  EXPECT_NE(output.find("ResourceExhausted"), std::string::npos) << output;
  EXPECT_NE(output.find("6320"), std::string::npos) << output;
  EXPECT_NE(output.find("max_candidate_pairs"), std::string::npos);
}

TEST_F(CliTest, ExplainWithGenerousLimitsSucceeds) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--max-candidate-pairs", "1000000",
                    "--max-pair-store-bytes", "1073741824",
                    "--max-training-cells", "10000000"},
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("BECAUSE"), std::string::npos);
}

TEST_F(CliTest, ExplainRejectsNegativeRobustnessOptions) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  for (const char* option : {"--deadline-ms", "--max-candidate-pairs",
                             "--max-pair-store-bytes",
                             "--max-training-cells"}) {
    std::string output;
    EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                      option, "-5"},
                     &output),
              1)
        << option;
    EXPECT_NE(output.find("error"), std::string::npos) << option;
  }
}

TEST_F(CliTest, MissingOptionValueFails) {
  std::string output;
  EXPECT_EQ(RunCli({"info", "--log"}, &output), 1);
  EXPECT_NE(output.find("missing value"), std::string::npos);
}

TEST_F(CliTest, ExitCodeForStatusMapsBudgetCodesDistinctly) {
  EXPECT_EQ(cli::ExitCodeForStatus(Status::OK()), 0);
  EXPECT_EQ(cli::ExitCodeForStatus(Status::DeadlineExceeded("late")), 3);
  EXPECT_EQ(cli::ExitCodeForStatus(Status::Cancelled("stop")), 4);
  EXPECT_EQ(cli::ExitCodeForStatus(Status::ResourceExhausted("big")), 5);
  EXPECT_EQ(cli::ExitCodeForStatus(Status::InvalidArgument("bad")), 1);
  EXPECT_EQ(cli::ExitCodeForStatus(Status::IoError("disk")), 1);
}

TEST_F(CliTest, DurableExplainJournalsAndRecoverReplays) {
  // Split off the last 10 rows as the append stream; the pair of
  // interest must live in the base so the pre-append query binds too.
  const ExecutionLog full = testing::CausalLog(80, 31);
  ExecutionLog base(full.schema());
  ExecutionLog delta(full.schema());
  for (std::size_t i = 0; i < full.size(); ++i) {
    PX_CHECK((i < 70 ? base : delta).Add(full.at(i)).ok());
  }
  Query query = testing::GtVsSimQuery();
  auto poi = reference::FindPairOfInterest(base, query);
  PX_CHECK(poi.ok());
  query.first_id = base.at(poi->first).id;
  query.second_id = base.at(poi->second).id;
  const std::string base_path = (dir_ / "base.csv").string();
  const std::string delta_path = (dir_ / "delta.csv").string();
  PX_CHECK(base.SaveCsv(base_path).ok());
  PX_CHECK(delta.SaveCsv(delta_path).ok());
  const std::string wal_dir = (dir_ / "wal").string();
  const std::string ckpt_dir = (dir_ / "ckpt").string();

  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", base_path, "--append-from",
                    delta_path, "--wal-dir", wal_dir, "--checkpoint-dir",
                    ckpt_dir, "--fsync", "batch", "--print-acks",
                    "--query", QueryText(query)},
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("ack "), std::string::npos) << output;
  EXPECT_NE(output.find("BECAUSE"), std::string::npos) << output;
  EXPECT_TRUE(std::filesystem::exists(wal_dir));
  EXPECT_TRUE(std::filesystem::exists(ckpt_dir));

  // Recovery (from the checkpoint; the WAL tail was truncated into it)
  // serves all 80 rows and answers the query.
  const std::string dump_path = (dir_ / "recovered.csv").string();
  EXPECT_EQ(RunCli({"recover", "--log", base_path, "--wal-dir", wal_dir,
                    "--checkpoint-dir", ckpt_dir, "--dump-log", dump_path,
                    "--query", QueryText(query)},
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("checkpoint: generation"), std::string::npos)
      << output;
  EXPECT_NE(output.find("serving 80 rows"), std::string::npos) << output;
  EXPECT_NE(output.find("BECAUSE"), std::string::npos) << output;
  auto recovered = ExecutionLog::LoadCsv(dump_path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->ToCsvText(), full.ToCsvText());
}

TEST_F(CliTest, RecoverWalOnlyReplaysTheJournal) {
  Query query;
  const std::string base_path = WriteCausalLog(&query);
  const std::string wal_dir = (dir_ / "wal_only").string();
  std::string output;
  // No appends ever happened: recovery of an empty journal serves the
  // seed log as-is.
  EXPECT_EQ(RunCli({"recover", "--log", base_path, "--wal-dir", wal_dir},
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("checkpoint: none"), std::string::npos) << output;
  EXPECT_NE(output.find("replayed 0 batches"), std::string::npos) << output;
  EXPECT_NE(output.find("serving 80 rows"), std::string::npos) << output;
}

TEST_F(CliTest, RecoverRequiresADurabilityDirectory) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"recover", "--log", path}, &output), 1);
  EXPECT_NE(output.find("error"), std::string::npos) << output;
}

TEST_F(CliTest, RecoverRefusesACheckpointDirectory) {
  // A directory named like the newest checkpoint cannot be read as one.
  Query query;
  const std::string path = WriteCausalLog(&query);
  const std::string ckpt_dir = (dir_ / "ckpt").string();
  std::filesystem::create_directories(dir_ / "ckpt" / "checkpoint-000005");
  std::string output;
  EXPECT_EQ(RunCli({"recover", "--log", path, "--checkpoint-dir", ckpt_dir},
                   &output),
            1);
  EXPECT_NE(output.find("checkpoint-000005': is a directory"),
            std::string::npos)
      << output;
}

TEST_F(CliTest, ExplainRejectsBadFsyncMode) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--append-from", path, "--wal-dir",
                    (dir_ / "w").string(), "--fsync", "sometimes"},
                   &output),
            1);
  EXPECT_NE(output.find("fsync"), std::string::npos) << output;
}

TEST_F(CliTest, ExplainRejectsDurabilityFlagsWithoutAppendStream) {
  Query query;
  const std::string path = WriteCausalLog(&query);
  std::string output;
  EXPECT_EQ(RunCli({"explain", "--log", path, "--query", QueryText(query),
                    "--wal-dir", (dir_ / "w").string()},
                   &output),
            1);
  EXPECT_NE(output.find("append-from"), std::string::npos) << output;
}

}  // namespace
}  // namespace perfxplain
