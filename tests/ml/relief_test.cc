#include "ml/relief.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "reference/reference.h"

namespace perfxplain {
namespace {

/// Log with one numeric feature that determines the target, one numeric
/// decoy, and one nominal feature that also matters.
ExecutionLog MakeRegressionLog(std::size_t n, std::uint64_t seed,
                               bool nominal_matters = true) {
  Schema schema;
  PX_CHECK(schema.Add("signal", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("decoy", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("mode", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("target", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double signal = rng.Uniform(0.0, 10.0);
    const double decoy = rng.Uniform(0.0, 10.0);
    const bool fast_mode = rng.Bernoulli(0.5);
    double target = 10.0 * signal + rng.Gaussian(0.0, 1.0);
    if (nominal_matters && fast_mode) target += 60.0;
    PX_CHECK(log.Add(ExecutionRecord(
                         StrFormat("r%04zu", i),
                         {Value::Number(signal), Value::Number(decoy),
                          Value::Nominal(fast_mode ? "fast" : "slow"),
                          Value::Number(target)}))
                 .ok());
  }
  return log;
}

TEST(ReliefTest, SignalOutranksDecoy) {
  const ExecutionLog log = MakeRegressionLog(300, 11);
  Rng rng(1);
  const auto weights = RRelieff(ColumnarLog(log), 3, ReliefOptions(), rng);
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_GT(weights[0], weights[1]) << "signal should beat decoy";
  EXPECT_GT(weights[2], weights[1]) << "mode should beat decoy";
  EXPECT_DOUBLE_EQ(weights[3], 0.0);  // target itself gets no weight
}

TEST(ReliefTest, RankingPutsSignalFirst) {
  const ExecutionLog log = MakeRegressionLog(300, 12);
  Rng rng(2);
  const auto ranking =
      RankFeaturesByImportance(ColumnarLog(log), 3, ReliefOptions(), rng);
  ASSERT_EQ(ranking.size(), 3u);  // target excluded
  EXPECT_EQ(ranking[0], 0u) << "signal should rank first";
  EXPECT_EQ(ranking.back(), 1u) << "decoy should rank last";
}

TEST(ReliefTest, HandlesMissingValues) {
  ExecutionLog log = MakeRegressionLog(100, 13);
  // Inject records with missing features; the estimator must not crash and
  // the ranking should still hold.
  PX_CHECK(log.Add(ExecutionRecord("miss1", {Value::Missing(),
                                             Value::Number(1),
                                             Value::Nominal("fast"),
                                             Value::Number(80)}))
               .ok());
  PX_CHECK(log.Add(ExecutionRecord("miss2", {Value::Number(5),
                                             Value::Missing(),
                                             Value::Missing(),
                                             Value::Number(50)}))
               .ok());
  Rng rng(3);
  const auto ranking =
      RankFeaturesByImportance(ColumnarLog(log), 3, ReliefOptions(), rng);
  EXPECT_EQ(ranking[0], 0u);
}

TEST(ReliefTest, ConstantTargetGivesNoSpuriousImportance) {
  Schema schema;
  PX_CHECK(schema.Add("a", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("target", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng data_rng(4);
  for (int i = 0; i < 50; ++i) {
    PX_CHECK(log.Add(ExecutionRecord(
                         "r" + std::to_string(i),
                         {Value::Number(data_rng.Uniform()),
                          Value::Number(42.0)}))
                 .ok());
  }
  Rng rng(5);
  const auto weights = RRelieff(ColumnarLog(log), 1, ReliefOptions(), rng);
  EXPECT_DOUBLE_EQ(weights[0], 0.0);
}

TEST(ReliefTest, TinyLogsAreSafe) {
  Schema schema;
  PX_CHECK(schema.Add("a", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("target", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(6);
  EXPECT_EQ(RRelieff(ColumnarLog(log), 1, ReliefOptions(), rng).size(), 2u);
  PX_CHECK(log.Add(ExecutionRecord("only", {Value::Number(1),
                                            Value::Number(2)}))
               .ok());
  EXPECT_EQ(RRelieff(ColumnarLog(log), 1, ReliefOptions(), rng)[0], 0.0);
}

TEST(ReliefTest, DeterministicGivenSeed) {
  const ExecutionLog log = MakeRegressionLog(150, 14);
  Rng rng1(7);
  Rng rng2(7);
  EXPECT_EQ(RRelieff(ColumnarLog(log), 3, ReliefOptions(), rng1),
            RRelieff(ColumnarLog(log), 3, ReliefOptions(), rng2));
}

TEST(ReliefTest, WeightsWithinUnitInterval) {
  const ExecutionLog log = MakeRegressionLog(200, 15);
  Rng rng(8);
  for (double w : RRelieff(ColumnarLog(log), 3, ReliefOptions(), rng)) {
    EXPECT_GE(w, -1.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(ReliefTest, StripedProbeLoopIsThreadCountInvariant) {
  // The probe loop is striped across workers; every thread count must
  // reproduce the serial reference's weights bitwise —
  // including with missing values in the log and more requested threads
  // than probes.
  ExecutionLog log = MakeRegressionLog(120, 16);
  PX_CHECK(log.Add(ExecutionRecord("miss", {Value::Missing(),
                                            Value::Number(2),
                                            Value::Missing(),
                                            Value::Number(70)}))
               .ok());
  const ColumnarLog columns(log);
  const ReliefOptions defaults;
  Rng serial_rng(9);
  const std::vector<double> serial = reference::RRelieff(
      log, 3, defaults.iterations, defaults.neighbors, serial_rng);
  for (int threads : {1, 2, 3, 5, 8, 1000}) {
    ReliefOptions options;
    options.threads = threads;
    Rng rng(9);
    const std::vector<double> striped = RRelieff(columns, 3, options, rng);
    ASSERT_EQ(striped.size(), serial.size()) << threads << " threads";
    for (std::size_t f = 0; f < serial.size(); ++f) {
      // Exact equality: the striped loop must replay the serial
      // floating-point accumulation order.
      EXPECT_EQ(striped[f], serial[f])
          << threads << " threads, feature " << f;
    }
  }
}

TEST(ReliefTest, StripedRankingMatchesSerialWithFewProbes) {
  // iterations < thread count and iterations > rows both stress the probe
  // striping (empty stripes; order[] reuse via probe % m).
  const ExecutionLog log = MakeRegressionLog(30, 17);
  const ColumnarLog columns(log);
  for (std::size_t iterations : {std::size_t{3}, std::size_t{64}}) {
    ReliefOptions serial_options;
    serial_options.iterations = iterations;
    Rng serial_rng(10);
    const auto serial = reference::RankByWeight(
        reference::RRelieff(log, 3, iterations, serial_options.neighbors,
                            serial_rng),
        3);
    ReliefOptions striped_options = serial_options;
    striped_options.threads = 7;
    Rng striped_rng(10);
    EXPECT_EQ(RankFeaturesByImportance(columns, 3, striped_options,
                                       striped_rng),
              serial)
        << iterations << " iterations";
  }
}

}  // namespace
}  // namespace perfxplain
