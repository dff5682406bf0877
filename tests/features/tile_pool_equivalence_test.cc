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
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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

// ------------------------------------ block fill vs the per-pair oracle

/// `log` with its columns repeated `copies` times under fresh names (9
/// copies of the four adversarial columns span two packed words).
ExecutionLog Widen(const ExecutionLog& log, std::size_t copies) {
  Schema schema;
  for (std::size_t c = 0; c < copies; ++c) {
    for (const FeatureDef& def : log.schema().defs()) {
      PX_CHECK(
          schema.Add(StrFormat("%s_%zu", def.name.c_str(), c), def.kind).ok());
    }
  }
  ExecutionLog wide(schema);
  for (const ExecutionRecord& record : log.records()) {
    std::vector<Value> cells;
    for (std::size_t c = 0; c < copies; ++c) {
      cells.insert(cells.end(), record.values.begin(), record.values.end());
    }
    PX_CHECK(wide.Add(ExecutionRecord(record.id, std::move(cells))).ok());
  }
  return wide;
}

/// The first `rows` records of `log`.
ExecutionLog Prefix(const ExecutionLog& log, std::size_t rows) {
  ExecutionLog prefix(log.schema());
  for (std::size_t r = 0; r < rows; ++r) PX_CHECK(prefix.Add(log.at(r)).ok());
  return prefix;
}

/// Adversarial logs of kFillBlockRows + 1 and 2 * kFillBlockRows + 3 rows
/// (a block and a row; two blocks and a partial third), one and two
/// packed words wide.
std::vector<std::pair<std::string, ExecutionLog>> BlockBoundaryLogs() {
  const std::size_t block = TilePool::kFillBlockRows;
  std::vector<std::pair<std::string, ExecutionLog>> logs;
  for (AdversarialLogSpec spec : AdversarialLogSpecs()) {
    if (spec.duplicated_rows || spec.rows < 2) continue;
    for (const std::size_t rows : {block + 1, 2 * block + 3}) {
      spec.rows = rows;
      const ExecutionLog log = testing::AdversarialLog(spec);
      for (const std::size_t copies : {std::size_t{1}, std::size_t{9}}) {
        logs.emplace_back(
            StrFormat("%s rows=%zu copies=%zu", spec.name.c_str(), rows,
                      copies),
            Widen(log, copies));
      }
    }
  }
  return logs;
}

/// Every pair vector of the plane over `columns`, pair (i, j) at
/// (i * rows + j) * words, packed one pair at a time.
std::vector<std::uint64_t> OraclePlane(const ColumnarLog& columns,
                                       double sim) {
  const kernel::RawColumnTable table(columns);
  const std::size_t n = columns.rows();
  const std::size_t words =
      TilePool::TileBytes(1, table.size()) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> plane(n * n * words);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      kernel::PackIsSameCodesRaw(table, i, j, sim,
                                 plane.data() + (i * n + j) * words);
    }
  }
  return plane;
}

/// Every word of a filled `plane` equals the oracle's.
void ExpectPlaneMatches(TilePool& plane,
                        const std::vector<std::uint64_t>& oracle,
                        const std::string& context) {
  ASSERT_TRUE(plane.full()) << context;
  const std::size_t tile_words = plane.rows() * plane.word_count();
  for (std::size_t i = 0; i < plane.rows(); ++i) {
    const std::uint64_t* tile = plane.Fetch(i);
    for (std::size_t w = 0; w < tile_words; ++w) {
      ASSERT_EQ(tile[w], oracle[i * tile_words + w])
          << context << " pair (" << i << ", " << w / plane.word_count()
          << ") word " << w % plane.word_count();
    }
  }
}

constexpr int kFillThreads[] = {0, 1, 2, 3, 8};
constexpr double kSim = 0.1;

TEST(TilePoolTest, ColdFillMatchesPerPairOracleAcrossBlocks) {
  for (const auto& [name, log] : BlockBoundaryLogs()) {
    const ColumnarLog columns(log);
    const std::vector<std::uint64_t> oracle = OraclePlane(columns, kSim);
    for (const int threads : kFillThreads) {
      TilePool plane(&columns, kSim, columns.rows());
      plane.Fill(threads);
      ExpectPlaneMatches(plane, oracle,
                         StrFormat("%s threads=%d", name.c_str(), threads));
    }
  }
}

TEST(TilePoolTest, SeededFillMatchesPerPairOracleAcrossBlocks) {
  const std::size_t block = TilePool::kFillBlockRows;
  for (const auto& [name, log] : BlockBoundaryLogs()) {
    const ColumnarLog columns(log);
    const std::vector<std::uint64_t> oracle = OraclePlane(columns, kSim);
    // Seeds ending before any row, after the first, on the first block
    // boundary and one row short of the log.
    for (const std::size_t seed_rows :
         {std::size_t{0}, std::size_t{1}, block, log.size() - 1}) {
      const ExecutionLog seed_log = Prefix(log, seed_rows);
      const ColumnarLog seed_columns(seed_log);
      TilePool seed(&seed_columns, kSim, seed_columns.rows());
      seed.Fill(1);
      for (const int threads : kFillThreads) {
        TilePool plane(&columns, kSim, columns.rows());
        plane.Fill(threads, &seed);
        ExpectPlaneMatches(plane, oracle,
                           StrFormat("%s seed_rows=%zu threads=%d",
                                     name.c_str(), seed_rows, threads));
      }
    }
  }
}

TEST(TilePoolTest, FillAroundScatteredFetchesMatchesPerPairOracle) {
  const std::size_t block = TilePool::kFillBlockRows;
  for (const auto& [name, log] : BlockBoundaryLogs()) {
    const ColumnarLog columns(log);
    const std::vector<std::uint64_t> oracle = OraclePlane(columns, kSim);
    const std::size_t n = columns.rows();
    // Out of row order, so the fetched tiles' frames are too; on and
    // around the first block boundary.
    const std::vector<std::size_t> scattered = {n - 1, block, 3, block - 1,
                                                0, n / 2};
    for (const bool seeded : {false, true}) {
      const ExecutionLog seed_log = Prefix(log, block);
      const ColumnarLog seed_columns(seed_log);
      TilePool seed(&seed_columns, kSim, seed_columns.rows());
      seed.Fill(1);
      for (const int threads : kFillThreads) {
        TilePool plane(&columns, kSim, n);
        std::vector<const std::uint64_t*> fetched;
        for (const std::size_t row : scattered) {
          fetched.push_back(plane.Fetch(row));
        }
        plane.Fill(threads, seeded ? &seed : nullptr);
        const std::string context =
            StrFormat("%s seeded=%d threads=%d", name.c_str(), seeded,
                      threads);
        ExpectPlaneMatches(plane, oracle, context);
        for (std::size_t r = 0; r < scattered.size(); ++r) {
          EXPECT_EQ(plane.Fetch(scattered[r]), fetched[r])
              << context << " row " << scattered[r];
        }
      }
    }
  }
}

TEST(TilePoolTest, InterruptedThenCompletedFillMatchesPerPairOracle) {
  // A canceller thread interrupts the fill after a varying delay (zero
  // stops it at its first checkpoint; the longer ones land anywhere or
  // not at all); a second fill completes the plane either way.
  for (const auto& [name, log] : BlockBoundaryLogs()) {
    const ColumnarLog columns(log);
    const std::vector<std::uint64_t> oracle = OraclePlane(columns, kSim);
    for (const int threads : kFillThreads) {
      for (const int delay_us : {0, 20, 100, 400}) {
        TilePool plane(&columns, kSim, columns.rows());
        auto token = std::make_shared<CancelToken>();
        ExecContext context;
        context.cancel = token;
        if (delay_us == 0) token->Cancel();
        std::thread canceller([&token, delay_us] {
          std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
          token->Cancel();
        });
        {
          ScopedExecContext scoped(&context);
          try {
            plane.Fill(threads);
          } catch (const InterruptedError&) {
          }
        }
        canceller.join();
        EXPECT_TRUE(delay_us != 0 || !plane.full());
        plane.Fill(threads);
        ExpectPlaneMatches(plane, oracle,
                           StrFormat("%s threads=%d delay=%dus", name.c_str(),
                                     threads, delay_us));
      }
    }
  }
}

TEST(TilePoolTest, ConcurrentFillsAndFetchesMatchPerPairOracle) {
  // Fills racing each other (cold and seeded, different stripe counts)
  // and fetchers touching rows from the far end: a row another thread is
  // building is waited for, never mirrored from before it is published.
  // Runs under TSan in CI.
  const std::size_t block = TilePool::kFillBlockRows;
  for (const auto& [name, log] : BlockBoundaryLogs()) {
    const ColumnarLog columns(log);
    const std::vector<std::uint64_t> oracle = OraclePlane(columns, kSim);
    const ExecutionLog seed_log = Prefix(log, block);
    const ColumnarLog seed_columns(seed_log);
    TilePool seed(&seed_columns, kSim, seed_columns.rows());
    seed.Fill(1);
    TilePool plane(&columns, kSim, columns.rows());
    {
      std::vector<std::thread> workers;
      workers.emplace_back([&] { plane.Fill(1); });
      workers.emplace_back([&] { plane.Fill(3, &seed); });
      workers.emplace_back([&] { plane.Fill(2); });
      for (int fetcher = 0; fetcher < 2; ++fetcher) {
        workers.emplace_back([&, fetcher] {
          for (std::size_t row = plane.rows(); row-- > 0;) {
            if (row % 2 == static_cast<std::size_t>(fetcher)) {
              plane.Fetch(row);
            }
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
    ExpectPlaneMatches(plane, oracle, name);
  }
}

// ---------------------------------------------- randomized budget suites

using testing::PickPair;

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
          testing::ExpectSameExplanation(response->explanation,
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
    testing::ExpectSameExplanation(results[t]->explanation, reference->explanation,
                          StrFormat("thread %d", t));
  }
}

}  // namespace
}  // namespace perfxplain
