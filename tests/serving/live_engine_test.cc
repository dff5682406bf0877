// The serving contract of LiveEngine: appends validate against the served
// log and never block reads, rotation atomically installs a new
// generation while retired generations keep draining, the shared result
// cache drops exactly the retired generation, promotion respects
// admission control and cancellation, and — the concurrency contract —
// eight threads of mixed Explain/Append produce responses bitwise
// identical to a serial run on whichever generation each observed (run
// under ThreadSanitizer in CI).

#include "serving/live_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pair_enumeration.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::CausalLog;
using perfxplain::testing::GtVsSimQuery;
using perfxplain::testing::PickPair;

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

class LiveEngineTest : public ::testing::Test {
 protected:
  // The base generation serves the first 60 rows of a 100-row causal log;
  // the remaining 40 are the append stream.
  LiveEngineTest() : full_(CausalLog(100, 55)), base_(full_.schema()) {
    for (std::size_t i = 0; i < 60; ++i) {
      PX_CHECK(base_.Add(full_.at(i)).ok());
    }
  }

  static EngineOptions SerialOptions() {
    EngineOptions options;
    options.explainer.threads = 1;
    options.sim_but_diff.threads = 1;
    options.rule_of_thumb.relief.threads = 1;
    return options;
  }

  Query MakeQuery(std::size_t skip = 0) {
    Query query = GtVsSimQuery();
    PX_CHECK(PickPair(base_, query, skip));
    return query;
  }

  ExecutionLog full_;
  ExecutionLog base_;
};

TEST_F(LiveEngineTest, AppendValidatesAgainstServedLogAndDelta) {
  LiveEngine live(base_, SerialOptions());
  // Id already served.
  EXPECT_EQ(live.Append(full_.at(0)).code(), StatusCode::kInvalidArgument);
  // Fresh id stages.
  EXPECT_TRUE(live.Append(full_.at(60)).ok());
  EXPECT_EQ(live.pending_rows(), 1u);
  // Pending duplicate.
  EXPECT_EQ(live.Append(full_.at(60)).code(), StatusCode::kInvalidArgument);
  // Arity mismatch.
  ExecutionRecord bad("bad", {Value::Number(1.0)});
  EXPECT_EQ(live.Append(std::move(bad)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live.pending_rows(), 1u);
}

TEST_F(LiveEngineTest, RefusedWrongKindAppendLeavesRotationWorking) {
  LiveEngine live(base_, SerialOptions());
  // A nominal where the schema says numeric: promotion's ExecutionLog::Add
  // would refuse it, so staging it would wedge every later rotation.
  ExecutionRecord wrong_kind = full_.at(60);
  const std::size_t numeric = full_.schema().IndexOf("cause");
  ASSERT_NE(numeric, Schema::kNotFound);
  wrong_kind.values[numeric] = Value::Nominal("oops");
  EXPECT_EQ(live.Append(std::move(wrong_kind)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live.pending_rows(), 0u);

  std::vector<ExecutionRecord> good = {full_.at(60), full_.at(61)};
  ASSERT_TRUE(live.AppendBatch(std::move(good)).ok());
  auto rotated = live.Rotate();
  ASSERT_TRUE(rotated.ok()) << rotated.status().ToString();
  EXPECT_EQ(rotated->promoted_rows, 2u);
  EXPECT_EQ(live.pending_rows(), 0u);
  EXPECT_EQ(live.engine()->log().size(), 62u);
}

TEST_F(LiveEngineTest, RotateWithoutPendingIsANoOp) {
  LiveEngine live(base_, SerialOptions());
  const std::uint64_t before = live.generation();
  auto stats = live.Rotate();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->old_snapshot_id, before);
  EXPECT_EQ(stats->new_snapshot_id, before);
  EXPECT_EQ(stats->promoted_rows, 0u);
  EXPECT_EQ(live.generation(), before);
  EXPECT_EQ(live.rotations(), 0u);
}

TEST_F(LiveEngineTest, RotatePromotesAndStampsResponses) {
  LiveEngine live(base_, SerialOptions());
  const std::uint64_t first_generation = live.generation();
  const Query query = MakeQuery();
  auto prepared = live.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  auto response = live.Explain(*prepared);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->snapshot_id, first_generation);

  for (std::size_t i = 60; i < 70; ++i) {
    ASSERT_TRUE(live.Append(full_.at(i)).ok());
  }
  auto stats = live.Rotate();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->old_snapshot_id, first_generation);
  EXPECT_GT(stats->new_snapshot_id, first_generation);
  EXPECT_EQ(stats->promoted_rows, 10u);
  EXPECT_EQ(stats->total_rows, 70u);
  EXPECT_EQ(live.pending_rows(), 0u);
  EXPECT_EQ(live.rotations(), 1u);
  EXPECT_EQ(live.generation(), stats->new_snapshot_id);

  // A re-appended promoted id is now a served duplicate.
  EXPECT_EQ(live.Append(full_.at(60)).code(),
            StatusCode::kInvalidArgument);

  auto fresh = live.Prepare(query);
  ASSERT_TRUE(fresh.ok());
  auto after = live.Explain(*fresh);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->snapshot_id, stats->new_snapshot_id);
}

TEST_F(LiveEngineTest, RetiredGenerationDrainsBitwiseThenExpires) {
  LiveEngine live(base_, SerialOptions());
  const Query query = MakeQuery();
  auto old_prepared = live.Prepare(query);
  ASSERT_TRUE(old_prepared.ok());
  const std::uint64_t old_generation = live.generation();

  ASSERT_TRUE(live.Append(full_.at(60)).ok());
  ASSERT_TRUE(live.Rotate().ok());

  // Within the drain window (default one generation): the old prepared
  // query still answers, on its own snapshot, bitwise as a standalone
  // engine over that snapshot would.
  auto drained = live.Explain(*old_prepared);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->snapshot_id, old_generation);
  const Engine standalone(old_prepared->snapshot(), SerialOptions());
  auto reference = standalone.Explain(*old_prepared);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(
      SameExplanation(drained->explanation, reference->explanation));

  // One more rotation slides the window past the old generation.
  ASSERT_TRUE(live.Append(full_.at(61)).ok());
  ASSERT_TRUE(live.Rotate().ok());
  auto expired = live.Explain(*old_prepared);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LiveEngineTest, RotationInvalidatesExactlyTheRetiredGeneration) {
  EngineOptions options = SerialOptions();
  options.result_cache_bytes = 1 << 20;
  LiveEngine live(base_, options);
  const Query query = MakeQuery();
  auto prepared = live.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  auto first = live.Explain(*prepared);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->result_cache_hit);
  auto second = live.Explain(*prepared);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cache_hit);

  ASSERT_TRUE(live.Append(full_.at(60)).ok());
  auto stats = live.Rotate();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->invalidated_cache_entries, 0u);

  // The new generation computes fresh (no stale cross-generation hit) and
  // re-caches under its own id.
  auto fresh = live.Prepare(query);
  ASSERT_TRUE(fresh.ok());
  auto recomputed = live.Explain(*fresh);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed->result_cache_hit);
  auto cached = live.Explain(*fresh);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->result_cache_hit);
}

TEST_F(LiveEngineTest, RowThresholdAutoRotatesInline) {
  RotationPolicy policy;
  policy.max_delta_rows = 5;
  LiveEngine live(base_, SerialOptions(), policy);
  for (std::size_t i = 60; i < 72; ++i) {
    ASSERT_TRUE(live.Append(full_.at(i)).ok());
  }
  // 12 appends at a threshold of 5: two inline rotations, 2 left pending.
  EXPECT_EQ(live.rotations(), 2u);
  EXPECT_EQ(live.pending_rows(), 2u);
  EXPECT_EQ(live.engine()->log().size(), 70u);
  EXPECT_EQ(live.auto_rotate_failures(), 0u);
}

TEST_F(LiveEngineTest, BackgroundPromoterRotatesOnThreshold) {
  RotationPolicy policy;
  policy.max_delta_rows = 4;
  policy.promoter_poll_ms = 5;
  LiveEngine live(base_, SerialOptions(), policy);
  live.StartPromoter();
  live.StartPromoter();  // idempotent
  for (std::size_t i = 60; i < 68; ++i) {
    ASSERT_TRUE(live.Append(full_.at(i)).ok());
  }
  // The promoter owns rotation; wait for it to catch up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live.pending_rows() >= policy.max_delta_rows &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  live.StopPromoter();
  live.StopPromoter();  // idempotent
  EXPECT_LT(live.pending_rows(), policy.max_delta_rows);
  EXPECT_GE(live.rotations(), 1u);
  EXPECT_GE(live.engine()->log().size(), 64u);
}

TEST_F(LiveEngineTest, RotationIsAdmissionCharged) {
  EngineOptions options = SerialOptions();
  // The base log already saturates the ceiling; any growth must be
  // rejected up front.
  options.limits.max_candidate_pairs = base_.size() * (base_.size() - 1);
  LiveEngine live(base_, options);
  const std::uint64_t before = live.generation();
  ASSERT_TRUE(live.Append(full_.at(60)).ok());
  auto stats = live.Rotate();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  // The deltas stay staged and the serving generation is untouched.
  EXPECT_EQ(live.pending_rows(), 1u);
  EXPECT_EQ(live.generation(), before);
  EXPECT_EQ(live.rotations(), 0u);
}

TEST_F(LiveEngineTest, CancelledRotationRollsBackWhole) {
  LiveEngine live(base_, SerialOptions());
  const std::uint64_t before = live.generation();
  ASSERT_TRUE(live.Append(full_.at(60)).ok());

  RotateRequest request;
  auto cancel = std::make_shared<CancelToken>();
  cancel->Cancel();
  request.cancel = cancel;
  auto cancelled = live.Rotate(request);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(live.pending_rows(), 1u);
  EXPECT_EQ(live.generation(), before);

  // The retry promotes the same staged deltas.
  auto retried = live.Rotate();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->promoted_rows, 1u);
  EXPECT_EQ(live.pending_rows(), 0u);
}

// The 8-thread hammer: four readers explain through the live engine while
// four writers append the remaining 40 rows (auto-rotating every 8). Every
// successful response must be bitwise identical to a serial engine's
// answer over the exact snapshot that served it.
TEST_F(LiveEngineTest, MixedExplainAppendHammerIsBitwiseSerial) {
  RotationPolicy policy;
  policy.max_delta_rows = 8;
  EngineOptions options = SerialOptions();
  options.result_cache_bytes = 1 << 20;
  LiveEngine live(base_, options, policy);

  const Query query_a = MakeQuery(0);
  const Query query_b = MakeQuery(1);
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;

  struct Observation {
    std::shared_ptr<const Engine> engine;  // pins the observed snapshot
    PreparedQuery prepared;
    Explanation explanation;
  };
  std::mutex observations_mutex;
  std::vector<Observation> observations;
  std::atomic<bool> failed{false};

  constexpr int kReaders = 4;
  constexpr int kWriters = 4;
  constexpr int kReads = 25;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const Query& query = (r % 2 == 0) ? query_a : query_b;
      for (int i = 0; i < kReads; ++i) {
        // Pin the generation we are about to observe so the serial replay
        // below can run on the identical snapshot even after it retires.
        std::shared_ptr<const Engine> engine = live.engine();
        auto prepared = live.Prepare(query);
        if (!prepared.ok()) {
          failed.store(true);
          return;
        }
        auto response = live.Explain(*prepared, request);
        if (!response.ok()) {
          // The only legal failure is a generation expiring mid-flight.
          if (response.status().code() != StatusCode::kInvalidArgument) {
            failed.store(true);
          }
          continue;
        }
        if (prepared->snapshot() == engine->snapshot()) {
          std::lock_guard<std::mutex> lock(observations_mutex);
          observations.push_back(Observation{std::move(engine), *prepared,
                                             response->explanation});
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = 60 + static_cast<std::size_t>(w); i < 100;
           i += kWriters) {
        if (!live.Append(full_.at(i)).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(live.Rotate().ok());
  EXPECT_EQ(live.engine()->log().size(), 100u);
  EXPECT_FALSE(observations.empty());

  // Serial replay: every observed response is reproduced bitwise by a
  // fresh single-threaded engine over the same snapshot generation.
  for (const Observation& observed : observations) {
    const Engine serial(observed.engine->snapshot(), SerialOptions());
    auto reference = serial.Explain(observed.prepared, request);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(
        SameExplanation(observed.explanation, reference->explanation));
  }
}

}  // namespace
}  // namespace perfxplain
