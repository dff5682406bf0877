// Randomized budget-equivalence suite of the TilePool: at every budget
// fraction — streaming (0), fractional tile pools (1/8, 1/4, 1/2),
// exactly one plane (1) and unbounded — over random query interleavings,
// thread counts and the shared adversarial log shapes, SimButDiff must be
// bitwise identical to the unbounded plane. Which rows hold frames, which
// rows stream and the thread count are never observable: a tile is a
// pure function of the immutable columns. The concurrency cases
// (TilePoolEquivalenceTest.*) run under ThreadSanitizer in CI next to the
// core concurrency suites (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "features/pair_feature_kernel.h"
#include "features/tile_pool.h"
#include "log/columnar.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::AdversarialLogSpec;
using testing::AdversarialLogSpecs;
using testing::GtVsSimQuery;

// --------------------------------------------------------------- TilePool

ExecutionLog SmallLog() {
  AdversarialLogSpec spec;
  spec.name = "unit";
  spec.rows = 12;
  spec.seed = 3;
  return testing::AdversarialLog(spec);
}

TEST(TilePoolTest, TileBytesIsOneRowOfThePlane) {
  const ExecutionLog log = SmallLog();
  const ColumnarLog columns(log);
  EXPECT_EQ(TilePool::TileBytes(log.size(), log.schema().size()) * log.size(),
            PairCodeStore::BytesNeeded(log.size(), log.schema().size()));
}

TEST(TilePoolTest, FetchedTilesMatchStreamingKernelBitwise) {
  const ExecutionLog log = SmallLog();
  const ColumnarLog columns(log);
  const double sim = 0.1;
  const kernel::RawColumnTable table(columns);
  // Fewer frames than rows (rows past the third stream) and a frame per
  // row (the plane).
  for (const std::size_t frames : {std::size_t{3}, log.size()}) {
    TilePool pool(&columns, sim, frames);
    std::vector<std::uint64_t> expected(pool.word_count(), 0);
    // Sweep all rows several times: every fetched tile — first touch or
    // hit — must be bitwise identical to the streaming kernel, and only
    // the first `frames` rows touched get one.
    for (int sweep = 0; sweep < 3; ++sweep) {
      for (std::size_t i = 0; i < pool.rows(); ++i) {
        const std::uint64_t* tile = pool.Fetch(i);
        ASSERT_EQ(tile != nullptr, i < frames)
            << "frames " << frames << " row " << i;
        if (tile == nullptr) continue;
        for (std::size_t j = 0; j < pool.rows(); ++j) {
          kernel::PackIsSameCodesRaw(table, i, j, sim, expected.data());
          for (std::size_t w = 0; w < pool.word_count(); ++w) {
            ASSERT_EQ(tile[j * pool.word_count() + w], expected[w])
                << "frames " << frames << " sweep " << sweep << " pair ("
                << i << ", " << j << ")";
          }
        }
      }
    }
    EXPECT_EQ(pool.full(), frames == pool.rows());
    EXPECT_EQ(pool.bytes(), frames * TilePool::TileBytes(
                                         log.size(), log.schema().size()));
    if (frames < pool.rows()) {
      EXPECT_GT(pool.hits() + pool.misses(), 0u);
    } else {
      // A plane counts no tile traffic.
      EXPECT_EQ(pool.hits() + pool.misses(), 0u);
    }
  }
}

TEST(TilePoolTest, InterruptedFillKeepsFinishedTiles) {
  const ExecutionLog log = SmallLog();
  const ColumnarLog columns(log);
  TilePool plane(&columns, 0.1, log.size());
  // Some tiles built on first touch before a fill starts.
  std::vector<const std::uint64_t*> built;
  for (std::size_t i = 0; i < 4; ++i) built.push_back(plane.Fetch(i));

  // A fill under a cancelled request stops at its first checkpoint: the
  // pool is not full, and the finished tiles keep their frames.
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  ExecContext context;
  context.cancel = token;
  {
    ScopedExecContext scoped(&context);
    EXPECT_THROW(plane.Fill(2), InterruptedError);
  }
  EXPECT_FALSE(plane.full());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(plane.Fetch(i), built[i]) << "row " << i;
  }

  // The next fill completes the pool around them.
  plane.Fill(2);
  EXPECT_TRUE(plane.full());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(plane.Fetch(i), built[i]) << "row " << i;
  }
}

TEST(TilePoolTest, InterruptedBuildFreesItsFrame) {
  const ExecutionLog log = SmallLog();
  const ColumnarLog columns(log);
  TilePool pool(&columns, 0.1, /*frames=*/1);
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  ExecContext context;
  context.cancel = token;
  {
    ScopedExecContext scoped(&context);
    EXPECT_THROW(pool.Fetch(0), InterruptedError);
  }
  // The interrupted build gave its frame back: the pool's only frame
  // still takes the next first touch, and row 0 then streams.
  EXPECT_NE(pool.Fetch(1), nullptr);
  EXPECT_EQ(pool.Fetch(0), nullptr);
}

// ---------------------------------------------- randomized budget suites

/// Fills the query's pair-of-interest ids with the `skip`-th admissible
/// pair, or returns false.
bool PickPair(const ExecutionLog& log, Query& query, std::size_t skip = 0) {
  const PairSchema schema(log.schema());
  Query bound = query;
  PX_CHECK(bound.Bind(schema).ok());
  auto poi =
      FindPairOfInterest(log, schema, bound, PairFeatureOptions(), skip);
  if (!poi.ok()) return false;
  query.first_id = log.at(poi->first).id;
  query.second_id = log.at(poi->second).id;
  return true;
}

void ExpectSameExplanation(const Explanation& actual,
                           const Explanation& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.because.atoms().size(), expected.because.atoms().size())
      << context;
  for (std::size_t a = 0; a < expected.because.atoms().size(); ++a) {
    EXPECT_EQ(actual.because.atoms()[a], expected.because.atoms()[a])
        << context << " atom " << a;
  }
  ASSERT_EQ(actual.because_trace.size(), expected.because_trace.size())
      << context;
  for (std::size_t a = 0; a < expected.because_trace.size(); ++a) {
    EXPECT_EQ(actual.because_trace[a].atom, expected.because_trace[a].atom)
        << context << " atom " << a;
    EXPECT_EQ(actual.because_trace[a].score, expected.because_trace[a].score)
        << context << " atom " << a;
  }
}

EngineOptions WithBudget(std::size_t budget, int threads) {
  EngineOptions options;
  options.sim_but_diff.pair_code_budget_bytes = budget;
  options.sim_but_diff.threads = threads;
  return options;
}

/// The budget ladder of one log: 0 (streaming), plane/8, plane/4, plane/2
/// (tile pools when they buy a frame), plane (resident) and unbounded.
std::vector<std::size_t> BudgetLadder(const ExecutionLog& log) {
  const std::size_t plane =
      PairCodeStore::BytesNeeded(log.size(), log.schema().size());
  return {0, plane / 8, plane / 4, plane / 2, plane,
          std::size_t{256} << 20};
}

TEST(TilePoolEquivalenceTest, RandomInterleavingsMatchUnboundedBitwise) {
  for (const AdversarialLogSpec& spec : AdversarialLogSpecs()) {
    const ExecutionLog log = testing::AdversarialLog(spec);
    // Several queries with distinct pairs of interest.
    std::vector<Query> queries;
    for (std::size_t skip : {0u, 2u, 5u}) {
      Query query = GtVsSimQuery("color_isSame = T");
      if (!PickPair(log, query, skip)) break;
      queries.push_back(query);
    }
    if (queries.empty()) continue;  // single-row logs admit no pair

    ExplainRequest request;
    request.technique = Technique::kSimButDiff;
    request.width = 3;

    // Unbounded reference, per query. A query the technique cannot
    // answer on this log (e.g. no scoring features among duplicated
    // rows) is part of the contract too: every budget must return the
    // same status, never a different answer.
    const Engine unbounded(log, WithBudget(std::size_t{256} << 20, 1));
    std::vector<Result<ExplainResponse>> reference;
    for (const Query& query : queries) {
      auto prepared = unbounded.Prepare(query);
      ASSERT_TRUE(prepared.ok()) << spec.name;
      reference.push_back(unbounded.Explain(*prepared, request));
    }

    for (std::size_t budget : BudgetLadder(log)) {
      for (int threads : {1, 2, 8}) {
        const Engine engine(log, WithBudget(budget, threads));
        std::vector<PreparedQuery> prepared;
        for (const Query& query : queries) {
          auto one = engine.Prepare(query);
          ASSERT_TRUE(one.ok());
          prepared.push_back(std::move(one).value());
        }
        // Random interleaving: several passes over the queries in
        // shuffled order, so which rows hold frames differs run to run.
        Rng rng(spec.seed * 1000 + budget % 997 + threads);
        std::vector<std::size_t> order;
        for (int pass = 0; pass < 3; ++pass) {
          for (std::size_t q = 0; q < queries.size(); ++q) {
            order.push_back(q);
          }
        }
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1],
                    order[rng.UniformInt(0, static_cast<int>(i) - 1)]);
        }
        for (std::size_t q : order) {
          auto response = engine.Explain(prepared[q], request);
          const std::string context =
              StrFormat("%s budget %zu threads %d query %zu",
                        spec.name.c_str(), budget, threads, q);
          ASSERT_EQ(response.ok(), reference[q].ok())
              << context << ": "
              << (response.ok() ? reference[q].status().ToString()
                                : response.status().ToString());
          if (!reference[q].ok()) {
            EXPECT_EQ(response.status().code(), reference[q].status().code())
                << context;
            continue;
          }
          EXPECT_FALSE(response->result_cache_hit) << context;
          ExpectSameExplanation(response->explanation,
                                reference[q]->explanation, context);
        }
      }
    }
  }
}

TEST(TilePoolEquivalenceTest, TileCountersReportedOnTiledPathOnly) {
  const ExecutionLog log = testing::AdversarialLog(AdversarialLogSpecs()[0]);
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  const std::size_t plane =
      PairCodeStore::BytesNeeded(log.size(), log.schema().size());
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;

  const Engine tiled(log, WithBudget(plane / 4, 1));
  auto prepared = tiled.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  auto cold = tiled.Explain(*prepared, request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->pair_store_hit);  // not the resident plane
  EXPECT_GT(cold->tile_misses, 0u);
  auto warm = tiled.Explain(*prepared, request);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->tile_hits, 0u);  // the first rows keep their frames

  // Resident plane and streaming report no tile traffic.
  for (std::size_t budget : {plane, std::size_t{0}}) {
    const Engine other(log, WithBudget(budget, 1));
    auto other_prepared = other.Prepare(query);
    ASSERT_TRUE(other_prepared.ok());
    auto response = other.Explain(*other_prepared, request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->tile_hits + response->tile_misses +
                  response->tile_evictions,
              0u)
        << "budget " << budget;
  }
}

TEST(TilePoolEquivalenceTest, ConcurrentFirstTouchUnderEightThreads) {
  // Eight threads race a cold tile pool's first touches: the kBuilding
  // rendezvous (condition variable) must hand every waiter a fully built
  // tile, the lock-free ready lookup must only ever see published tiles,
  // and every response must be bitwise identical to a serial run.
  // Runs under TSan in CI.
  const ExecutionLog log = testing::AdversarialLog(AdversarialLogSpecs()[0]);
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  const std::size_t plane =
      PairCodeStore::BytesNeeded(log.size(), log.schema().size());
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;

  const Engine reference_engine(log, WithBudget(plane / 4, 1));
  auto reference_prepared = reference_engine.Prepare(query);
  ASSERT_TRUE(reference_prepared.ok());
  auto reference = reference_engine.Explain(*reference_prepared, request);
  ASSERT_TRUE(reference.ok());

  const Engine engine(log, WithBudget(plane / 4, 1));
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  constexpr int kThreads = 8;
  std::vector<Result<ExplainResponse>> results;
  for (int t = 0; t < kThreads; ++t) {
    results.push_back(Status::Internal("not run"));
  }
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        results[t] = engine.Explain(*prepared, request);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
    ExpectSameExplanation(results[t]->explanation, reference->explanation,
                          StrFormat("thread %d", t));
  }
}

}  // namespace
}  // namespace perfxplain
