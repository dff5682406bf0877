// Fail-soft behavior of the Engine: cooperative cancellation and
// deadlines surface as kCancelled/kDeadlineExceeded without corrupting
// the shared LogSnapshot (an interrupted pair-code plane fill keeps the
// tiles it finished and the next request completes it), checkpoints
// never change any
// computed value when nothing fires, and admission control rejects
// oversized requests with kResourceExhausted before any scan runs.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::CausalLog;
using perfxplain::testing::GtVsSimQuery;

/// Resolves a pair of interest for `query` over `log`, writing the record
/// ids into the query.
void PickPair(const ExecutionLog& log, Query& query) {
  auto poi = reference::FindPairOfInterest(log, query);
  PX_CHECK(poi.ok());
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;
}

/// Bitwise explanation equality: same atoms in both clauses and exactly
/// equal per-atom scores.
::testing::AssertionResult SameExplanation(const Explanation& actual,
                                           const Explanation& expected) {
  if (!(actual.because == expected.because)) {
    return ::testing::AssertionFailure()
           << "because: " << actual.because.ToString() << " vs "
           << expected.because.ToString();
  }
  if (!(actual.despite == expected.despite)) {
    return ::testing::AssertionFailure()
           << "despite: " << actual.despite.ToString() << " vs "
           << expected.despite.ToString();
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

class EngineRobustnessTest : public ::testing::Test {
 protected:
  EngineRobustnessTest() : log_(CausalLog(100, 55)) {
    query_ = GtVsSimQuery();
    PickPair(log_, query_);
  }

  /// An engine over a fresh copy of the deterministic log (CausalLog is
  /// seeded, so every copy is identical).
  static std::unique_ptr<Engine> MakeEngine(EngineOptions options = {}) {
    return std::make_unique<Engine>(CausalLog(100, 55), std::move(options));
  }

  ExecutionLog log_;
  Query query_;
};

TEST_F(EngineRobustnessTest, PreCancelledTokenReturnsCancelled) {
  auto engine = MakeEngine();
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  for (Technique technique : {Technique::kPerfXplain, Technique::kSimButDiff,
                              Technique::kRuleOfThumb}) {
    ExplainRequest request;
    request.technique = technique;
    request.cancel = token;
    auto response = engine->Explain(*prepared, request);
    ASSERT_FALSE(response.ok()) << TechniqueToString(technique);
    EXPECT_EQ(response.status().code(), StatusCode::kCancelled)
        << TechniqueToString(technique) << ": "
        << response.status().ToString();
  }

  // The engine is unharmed: the same prepared query still answers, and
  // bitwise identically to an engine that never saw a cancellation.
  ExplainRequest clean;
  auto after = engine->Explain(*prepared, clean);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto baseline_engine = MakeEngine();
  auto baseline_prepared = baseline_engine->Prepare(query_);
  ASSERT_TRUE(baseline_prepared.ok());
  auto baseline = baseline_engine->Explain(*baseline_prepared, clean);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(SameExplanation(after->explanation, baseline->explanation));
}

TEST_F(EngineRobustnessTest, CancelMidScanOfMultiThreadedExplain) {
  // A log big enough that the SimButDiff pair scan (streaming, so no
  // store build shortens it) runs for many checkpoint rounds.
  const std::size_t n = 1200;
  ExecutionLog big = CausalLog(n, 7);
  Query query = GtVsSimQuery();
  PickPair(big, query);
  EngineOptions options;
  options.sim_but_diff.threads = 4;
  options.sim_but_diff.pair_code_budget_bytes = 0;  // always stream
  Engine engine(big, options);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // The watcher cancels shortly after the scan starts. If the scan ever
  // outraces the watcher (absurdly fast machine), retry with the next
  // attempt rather than flake.
  bool cancelled_mid_scan = false;
  for (int attempt = 0; attempt < 5 && !cancelled_mid_scan; ++attempt) {
    auto token = std::make_shared<CancelToken>();
    ExplainRequest request;
    request.technique = Technique::kSimButDiff;
    request.cancel = token;
    Result<ExplainResponse> response = Status::Internal("not run");
    std::thread worker([&] { response = engine.Explain(*prepared, request); });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token->Cancel();
    worker.join();
    if (!response.ok()) {
      EXPECT_EQ(response.status().code(), StatusCode::kCancelled)
          << response.status().ToString();
      cancelled_mid_scan = true;
    }
  }
  EXPECT_TRUE(cancelled_mid_scan)
      << "scan finished before the cancel landed on every attempt";

  // The shared snapshot still serves, bitwise identical to an engine that
  // was never cancelled.
  ExplainRequest clean;
  clean.technique = Technique::kSimButDiff;
  auto after = engine.Explain(*prepared, clean);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  Engine baseline_engine(CausalLog(n, 7), options);
  auto baseline_prepared = baseline_engine.Prepare(query);
  ASSERT_TRUE(baseline_prepared.ok());
  auto baseline = baseline_engine.Explain(*baseline_prepared, clean);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(SameExplanation(after->explanation, baseline->explanation));
}

TEST_F(EngineRobustnessTest, CancelledStoreBuildRollsBackAndRebuilds) {
  EngineOptions options;
  options.sim_but_diff.pair_code_budget_bytes = std::size_t{1} << 30;
  auto engine = MakeEngine(options);
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  const PairCodeStore& store = engine->snapshot()->pair_codes();
  const double sim_fraction =
      engine->options().sim_but_diff.pair.sim_fraction;

  // The pre-cancelled token interrupts the plane fill at its first
  // checkpoint. The tiles it finished stay (TilePoolTest.
  // InterruptedFillKeepsFinishedTiles pins that), but the plane is not
  // warm and no fill is counted.
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.cancel = token;
  auto cancelled = engine->Explain(*prepared, request);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(store.warm(sim_fraction));
  EXPECT_EQ(store.build_count(), 0u);

  // The next clean request completes the fill and answers bitwise
  // identically to a never-cancelled engine reading its plane.
  ExplainRequest clean;
  clean.technique = Technique::kSimButDiff;
  auto rebuilt = engine->Explain(*prepared, clean);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->pair_store_built);
  EXPECT_TRUE(rebuilt->pair_store_hit);
  EXPECT_TRUE(store.warm(sim_fraction));
  EXPECT_EQ(store.build_count(), 1u);

  auto baseline_engine = MakeEngine(options);
  auto baseline_prepared = baseline_engine->Prepare(query_);
  ASSERT_TRUE(baseline_prepared.ok());
  auto baseline = baseline_engine->Explain(*baseline_prepared, clean);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(SameExplanation(rebuilt->explanation, baseline->explanation));
}

TEST_F(EngineRobustnessTest, DeadlineExceededOnLongScan) {
  // Serial streaming scan over 1200·1199 pairs cannot finish within 1ms;
  // the first checkpoint after the deadline returns kDeadlineExceeded.
  const std::size_t n = 1200;
  ExecutionLog big = CausalLog(n, 7);
  Query query = GtVsSimQuery();
  PickPair(big, query);
  EngineOptions options;
  options.sim_but_diff.threads = 1;
  options.sim_but_diff.pair_code_budget_bytes = 0;
  Engine engine(big, options);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.deadline_ms = 1;
  auto response = engine.Explain(*prepared, request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
}

TEST_F(EngineRobustnessTest, UnfiredDeadlineAndTokenAreObservationFree) {
  auto engine = MakeEngine();
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  for (Technique technique : {Technique::kPerfXplain, Technique::kSimButDiff,
                              Technique::kRuleOfThumb}) {
    ExplainRequest plain;
    plain.technique = technique;
    auto expected = engine->Explain(*prepared, plain);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    ExplainRequest guarded = plain;
    guarded.deadline_ms = 60'000;
    guarded.cancel = std::make_shared<CancelToken>();
    auto actual = engine->Explain(*prepared, guarded);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(SameExplanation(actual->explanation, expected->explanation))
        << TechniqueToString(technique);
  }
}

TEST_F(EngineRobustnessTest, AdmissionRejectsOversizedPairCount) {
  EngineOptions options;
  options.limits.max_candidate_pairs = 100;  // log has 100·99 = 9900
  auto engine = MakeEngine(options);
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  for (Technique technique : {Technique::kPerfXplain, Technique::kSimButDiff,
                              Technique::kRuleOfThumb}) {
    ExplainRequest request;
    request.technique = technique;
    auto response = engine->Explain(*prepared, request);
    ASSERT_FALSE(response.ok()) << TechniqueToString(technique);
    EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
    // The estimate and the limit it tripped are in the message.
    EXPECT_NE(response.status().message().find("9900"), std::string::npos)
        << response.status().ToString();
    EXPECT_NE(response.status().message().find("max_candidate_pairs"),
              std::string::npos);
  }
}

TEST_F(EngineRobustnessTest, AdmissionAcceptsExactPairBudget) {
  EngineOptions options;
  options.limits.max_candidate_pairs = 100 * 99;  // exactly the estimate
  auto engine = MakeEngine(options);
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok());
  auto response = engine->Explain(*prepared);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

TEST_F(EngineRobustnessTest, AdmissionRejectsPairStoreOnlyWhenResident) {
  // With a budget that lets the plane build, the store bytes are charged
  // against max_pair_store_bytes ...
  EngineOptions resident;
  resident.sim_but_diff.pair_code_budget_bytes = std::size_t{1} << 30;
  resident.limits.max_pair_store_bytes = 1;
  auto engine = MakeEngine(resident);
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok());
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  auto rejected = engine->Explain(*prepared, request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("max_pair_store_bytes"),
            std::string::npos);
  // ... and only SimButDiff pays them: PerfXplain never builds a plane.
  auto other = engine->Explain(*prepared);
  EXPECT_TRUE(other.ok()) << other.status().ToString();

  // A request that would stream anyway (budget 0) costs no store bytes.
  EngineOptions streaming = resident;
  streaming.sim_but_diff.pair_code_budget_bytes = 0;
  auto streaming_engine = MakeEngine(streaming);
  auto streaming_prepared = streaming_engine->Prepare(query_);
  ASSERT_TRUE(streaming_prepared.ok());
  auto admitted = streaming_engine->Explain(*streaming_prepared, request);
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
}

TEST_F(EngineRobustnessTest, AdmissionRejectsOversizedTrainingMatrix) {
  EngineOptions options;
  options.limits.max_training_cells = 1;
  auto engine = MakeEngine(options);
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok());

  auto rejected = engine->Explain(*prepared);  // PerfXplain is the default
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("max_training_cells"),
            std::string::npos);

  // The training-matrix ceiling only applies to PerfXplain.
  ExplainRequest baseline;
  baseline.technique = Technique::kSimButDiff;
  auto admitted = engine->Explain(*prepared, baseline);
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
}

TEST_F(EngineRobustnessTest, BatchIsolatesCancelledItems) {
  auto engine = MakeEngine();
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok());

  auto cancelled_token = std::make_shared<CancelToken>();
  cancelled_token->Cancel();
  std::vector<Engine::BatchItem> items(3);
  for (Engine::BatchItem& item : items) {
    item.prepared = &*prepared;
    item.request.technique = Technique::kSimButDiff;
  }
  items[1].request.cancel = cancelled_token;
  auto responses = engine->ExplainBatch(items);
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[0].ok()) << responses[0].status().ToString();
  ASSERT_FALSE(responses[1].ok());
  EXPECT_EQ(responses[1].status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(responses[2].ok());

  // The surviving items answer bitwise identically to per-call Explain.
  ExplainRequest clean;
  clean.technique = Technique::kSimButDiff;
  auto expected = engine->Explain(*prepared, clean);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(
      SameExplanation(responses[0]->explanation, expected->explanation));
  EXPECT_TRUE(
      SameExplanation(responses[2]->explanation, expected->explanation));
}

TEST_F(EngineRobustnessTest, BatchAppliesAdmissionPerItem) {
  EngineOptions options;
  options.limits.max_training_cells = 1;  // rejects PerfXplain only
  auto engine = MakeEngine(options);
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok());

  std::vector<Engine::BatchItem> items(2);
  items[0].prepared = &*prepared;
  items[0].request.technique = Technique::kPerfXplain;
  items[1].prepared = &*prepared;
  items[1].request.technique = Technique::kSimButDiff;
  auto responses = engine->ExplainBatch(items);
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_FALSE(responses[0].ok());
  EXPECT_EQ(responses[0].status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(responses[1].ok()) << responses[1].status().ToString();
}

TEST_F(EngineRobustnessTest, ConcurrentCancelAffectsOnlyItsRequest) {
  // One shared engine, two concurrent requests: a cancelled one and a
  // clean one. The ExecContext is per-request (thread-local install), so
  // the clean request must finish untouched.
  auto engine = MakeEngine();
  auto prepared = engine->Prepare(query_);
  ASSERT_TRUE(prepared.ok());

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  Result<ExplainResponse> cancelled = Status::Internal("not run");
  Result<ExplainResponse> clean = Status::Internal("not run");
  std::thread cancelled_thread([&] {
    ExplainRequest request;
    request.technique = Technique::kSimButDiff;
    request.cancel = token;
    cancelled = engine->Explain(*prepared, request);
  });
  std::thread clean_thread([&] {
    ExplainRequest request;
    request.technique = Technique::kSimButDiff;
    clean = engine->Explain(*prepared, request);
  });
  cancelled_thread.join();
  clean_thread.join();

  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  auto expected = engine->Explain(*prepared, request);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameExplanation(clean->explanation, expected->explanation));
}

}  // namespace
}  // namespace perfxplain
