// The incrementality contract of promotion: a snapshot grown from a base
// snapshot (columns extended in place, pair plane seeded from the old
// generation's tiles) is bitwise identical to a cold rebuild of the same
// log — every dictionary code, every column word, every packed pair word,
// and every explanation — at every thread count, tile budget, and across
// the adversarial log shapes.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "log/columnar.h"
#include "serving/live_engine.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::AdversarialLog;
using perfxplain::testing::AdversarialLogSpecs;
using perfxplain::testing::CausalLog;
using perfxplain::testing::GtVsSimQuery;

/// First `n` records of `log` as a fresh log with the same schema.
ExecutionLog Prefix(const ExecutionLog& log, std::size_t n) {
  ExecutionLog prefix(log.schema());
  for (std::size_t i = 0; i < n && i < log.size(); ++i) {
    PX_CHECK(prefix.Add(log.at(i)).ok());
  }
  return prefix;
}

/// Records `n`.. of `log`, the delta a live engine would ingest.
std::vector<ExecutionRecord> Suffix(const ExecutionLog& log, std::size_t n) {
  std::vector<ExecutionRecord> records;
  for (std::size_t i = n; i < log.size(); ++i) records.push_back(log.at(i));
  return records;
}

/// Bitwise column equality (doubles compared by representation, so NaN
/// payloads of the adversarial logs compare equal to themselves).
void ExpectSameColumns(const ColumnarLog& actual, const ColumnarLog& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.rows(), expected.rows()) << context;
  ASSERT_EQ(actual.interner().size(), expected.interner().size()) << context;
  for (std::int32_t code = 0;
       code < static_cast<std::int32_t>(expected.interner().size()); ++code) {
    EXPECT_EQ(actual.interner().StringOf(code),
              expected.interner().StringOf(code))
        << context << " code " << code;
  }
  for (std::size_t col = 0; col < expected.schema().size(); ++col) {
    if (expected.is_numeric(col)) {
      const NumericColumn& a = actual.numeric_column(col);
      const NumericColumn& e = expected.numeric_column(col);
      ASSERT_EQ(a.values.size(), e.values.size()) << context;
      EXPECT_EQ(std::memcmp(a.values.data(), e.values.data(),
                            e.values.size() * sizeof(double)),
                0)
          << context << " numeric col " << col;
    } else {
      const NominalColumn& a = actual.nominal_column(col);
      const NominalColumn& e = expected.nominal_column(col);
      EXPECT_EQ(a.codes, e.codes) << context << " nominal col " << col;
    }
  }
}

TEST(PromotionEquivalenceTest, ExtendedColumnsMatchColdRebuild) {
  const ExecutionLog full = CausalLog(48, 7);
  const ExecutionLog base_log = Prefix(full, 30);
  const ColumnarLog base(base_log);
  const ColumnarLog extended(base, Suffix(full, 30));
  const ColumnarLog cold(full);
  ExpectSameColumns(extended, cold, "causal 30+18");
}

TEST(PromotionEquivalenceTest, ExtendedColumnsMatchColdOnAdversarialLogs) {
  for (const auto& spec : AdversarialLogSpecs()) {
    const ExecutionLog full = AdversarialLog(spec);
    // Splits at several fractions, including the degenerate ones.
    for (const std::size_t base_rows :
         {std::size_t{0}, full.size() / 2, full.size()}) {
      const ExecutionLog base_log = Prefix(full, base_rows);
      const ColumnarLog base(base_log);
      const ColumnarLog extended(base, Suffix(full, base_rows));
      const ColumnarLog cold(full);
      ExpectSameColumns(extended, cold,
                        spec.name + " base " + std::to_string(base_rows));
    }
  }
}

TEST(PromotionEquivalenceTest, SeededPlaneMatchesColdAtEveryThreadCount) {
  const ExecutionLog full = CausalLog(40, 11);
  const ExecutionLog base_log = Prefix(full, 25);
  const double sim = SimButDiffOptions{}.pair.sim_fraction;
  const std::size_t budget =
      PairCodeStore::BytesNeeded(full.size(), full.schema().size());

  // Cold reference plane over the full log.
  const LogSnapshot cold(full);
  TilePool* cold_plane = cold.pair_codes().Acquire(sim, budget, 1);
  ASSERT_NE(cold_plane, nullptr);

  // 0 resolves to the process default (hardware concurrency).
  for (const int threads : {0, 1, 2, 8}) {
    const LogSnapshot base(base_log);
    const TilePool* base_plane = base.pair_codes().Acquire(
        sim, PairCodeStore::BytesNeeded(base_log.size(),
                                        base_log.schema().size()),
        1);
    ASSERT_NE(base_plane, nullptr);
    const LogSnapshot grown(base, Suffix(full, 25));
    TilePool* seeded =
        grown.pair_codes().Acquire(sim, budget, threads, base_plane);
    ASSERT_NE(seeded, nullptr) << "threads " << threads;
    ASSERT_EQ(seeded->rows(), cold_plane->rows());
    ASSERT_EQ(seeded->word_count(), cold_plane->word_count());
    const std::size_t words = seeded->rows() * seeded->word_count();
    for (std::size_t i = 0; i < seeded->rows(); ++i) {
      EXPECT_EQ(std::memcmp(seeded->Fetch(i), cold_plane->Fetch(i),
                            words * sizeof(std::uint64_t)),
                0)
          << "threads " << threads << " row " << i;
    }
  }
}

/// Promotes `full`'s suffix through a LiveEngine and checks the resulting
/// generation answers bitwise like a cold engine over the full log.
void ExpectPromotedMatchesCold(const ExecutionLog& full,
                               std::size_t base_rows, EngineOptions options,
                               const std::string& context,
                               RotationPolicy policy = RotationPolicy()) {
  // Warm the base plane so promotion takes the seeded path when budget
  // allows.
  LiveEngine live(Prefix(full, base_rows), options, policy);
  const double sim = options.sim_but_diff.pair.sim_fraction;
  live.engine()->snapshot()->pair_codes().Acquire(
      sim, options.sim_but_diff.pair_code_budget_bytes, 1);

  std::vector<ExecutionRecord> delta = Suffix(full, base_rows);
  if (!delta.empty()) {
    ASSERT_TRUE(live.AppendBatch(std::move(delta)).ok()) << context;
  }
  auto stats = live.Rotate();
  ASSERT_TRUE(stats.ok()) << context << ": " << stats.status().ToString();
  EXPECT_EQ(stats->total_rows, full.size()) << context;
  EXPECT_EQ(live.pending_rows(), 0u) << context;

  const Engine cold(full, options);
  ExpectSameColumns(live.engine()->snapshot()->columns(),
                    cold.snapshot()->columns(), context);

  // Same explanations for a few pairs of interest.
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  for (std::size_t skip = 0; skip < 3; ++skip) {
    Query query = GtVsSimQuery();
    {
      auto poi = reference::FindPairOfInterest(full, query, skip);
      if (!poi.ok()) break;
      query.first_id = full.at(poi->first).id;
      query.second_id = full.at(poi->second).id;
    }
    auto live_prepared = live.Prepare(query);
    auto cold_prepared = cold.Prepare(query);
    ASSERT_EQ(live_prepared.ok(), cold_prepared.ok()) << context;
    if (!live_prepared.ok()) continue;
    auto from_live = live.Explain(*live_prepared, request);
    auto from_cold = cold.Explain(*cold_prepared, request);
    ASSERT_EQ(from_live.ok(), from_cold.ok()) << context;
    if (!from_live.ok()) continue;
    EXPECT_EQ(from_live->explanation.because.ToString(),
              from_cold->explanation.because.ToString())
        << context;
    ASSERT_EQ(from_live->explanation.because_trace.size(),
              from_cold->explanation.because_trace.size())
        << context;
    for (std::size_t a = 0; a < from_cold->explanation.because_trace.size();
         ++a) {
      EXPECT_EQ(from_live->explanation.because_trace[a].score,
                from_cold->explanation.because_trace[a].score)
          << context << " atom " << a;
    }
  }
}

TEST(PromotionEquivalenceTest, PromotedEngineMatchesColdAcrossThreadCounts) {
  const ExecutionLog full = CausalLog(36, 23);
  for (const int threads : {1, 2, 8}) {
    EngineOptions options;
    options.explainer.threads = 1;
    options.sim_but_diff.threads = threads;
    ExpectPromotedMatchesCold(full, 24, options,
                              "threads " + std::to_string(threads));
  }
}

TEST(PromotionEquivalenceTest, PromoteThreadsZeroMeansHardwareConcurrency) {
  // promote_threads = 0 resolves through the one thread resolver (the
  // process default, itself the hardware concurrency) instead of
  // collapsing to a single stripe; the seeded fill still matches cold.
  const ExecutionLog full = CausalLog(36, 29);
  EngineOptions options;
  options.explainer.threads = 1;
  options.sim_but_diff.threads = 1;
  RotationPolicy policy;
  policy.promote_threads = 0;
  ExpectPromotedMatchesCold(full, 24, options, "promote_threads 0", policy);
}

TEST(PromotionEquivalenceTest, PromotedEngineMatchesColdAcrossTileBudgets) {
  const ExecutionLog full = CausalLog(32, 31);
  const std::size_t whole =
      PairCodeStore::BytesNeeded(full.size(), full.schema().size());
  // Whole plane resident, a fractional tile budget, and pure streaming.
  for (const std::size_t budget : {whole, whole / 3, std::size_t{0}}) {
    EngineOptions options;
    options.explainer.threads = 1;
    options.sim_but_diff.threads = 1;
    options.sim_but_diff.pair_code_budget_bytes = budget;
    ExpectPromotedMatchesCold(full, 20, options,
                              "budget " + std::to_string(budget));
  }
}

TEST(PromotionEquivalenceTest, PromotedEngineMatchesColdOnAdversarialLogs) {
  for (const auto& spec : AdversarialLogSpecs()) {
    const ExecutionLog full = AdversarialLog(spec);
    EngineOptions options;
    options.explainer.threads = 1;
    options.sim_but_diff.threads = 1;
    ExpectPromotedMatchesCold(full, full.size() / 2, options, spec.name);
  }
}

}  // namespace
}  // namespace perfxplain
