// Equivalence and concurrency tests of the snapshot-resident PairCodeStore
// path: SimButDiff over the plane's packed codes must be bitwise identical to
// the streaming fused pack-and-compare (and to the naive reference of
// tests/reference/) on awkward logs — missing values, NaN, comma-bearing
// nominals — at every thread count, under the memory-cap fallback, and
// when eight threads race the store's first touch. The concurrency tests
// run under ThreadSanitizer in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "core/sim_but_diff.h"
#include "features/tile_pool.h"
#include "serving/live_engine.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::GtVsSimQuery;

/// Randomized log with the awkward payloads — the baseline shape of the
/// shared adversarial builder (testing::AdversarialLog), which the
/// tile-pool and result-cache suites sweep across all its shapes.
ExecutionLog AwkwardRandomLog(std::uint64_t seed, std::size_t n) {
  testing::AdversarialLogSpec spec;
  spec.name = "awkward";
  spec.seed = seed;
  spec.rows = n;
  return testing::AdversarialLog(spec);
}

using testing::PickPair;

EngineOptions WithBudget(std::size_t budget, int threads = 0) {
  EngineOptions options;
  options.sim_but_diff.pair_code_budget_bytes = budget;
  options.sim_but_diff.threads = threads;
  return options;
}

TEST(PairCodeStoreEquivalenceTest, ResidentMatchesStreamingAndLegacy) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ExecutionLog log = AwkwardRandomLog(seed, 40);
    Query query = GtVsSimQuery("color_isSame = T AND x_isSame = T");
    if (!PickPair(log, query)) continue;
    // The naive reference, for the pair of interest Prepare resolves.
    const Engine reference_engine(log);
    const auto reference_prepared = reference_engine.Prepare(query);
    ASSERT_TRUE(reference_prepared.ok())
        << reference_prepared.status().ToString();
    const auto expected = reference::SimButDiff(
        log, reference_prepared->bound(), reference_prepared->poi_first(),
        reference_prepared->poi_second(), 3);

    for (int threads : {1, 2, 5, 8}) {
      // Resident path (default budget) vs streaming path (budget 0).
      const Engine resident(log, WithBudget(std::size_t{256} << 20,
                                            threads));
      const Engine streaming(log, WithBudget(0, threads));
      ExplainRequest request;
      request.technique = Technique::kSimButDiff;
      request.width = 3;
      auto resident_prepared = resident.Prepare(query);
      auto streaming_prepared = streaming.Prepare(query);
      ASSERT_EQ(resident_prepared.ok(), streaming_prepared.ok());
      if (!resident_prepared.ok()) continue;
      auto from_resident = resident.Explain(*resident_prepared, request);
      auto from_streaming = streaming.Explain(*streaming_prepared, request);
      const std::string context =
          StrFormat("seed %llu threads %d",
                    static_cast<unsigned long long>(seed), threads);
      EXPECT_EQ(from_resident.ok(), from_streaming.ok()) << context;
      if (from_resident.ok()) {
        EXPECT_TRUE(from_resident->pair_store_hit) << context;
        EXPECT_FALSE(from_streaming->pair_store_hit) << context;
        testing::ExpectSameExplanation(from_resident->explanation,
                              from_streaming->explanation, context);
      }
      // And both must match the reference.
      testing::ExpectMatchesReference(
          from_resident.ok() ? Result<Explanation>(
                                   from_resident->explanation)
                             : Result<Explanation>(from_resident.status()),
          expected, context + " vs reference");
    }
  }
}

/// A log with two nominal join keys (missing cells, a singleton host) and
/// enough further features that SimButDiff at a loose similarity
/// threshold tallies many pairs into several scored atoms.
ExecutionLog EquiJoinLog(std::uint64_t seed, std::size_t n) {
  Schema schema;
  PX_CHECK(schema.Add("group", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("host", ValueKind::kNominal).ok());
  for (const char* name : {"a", "b", "c", "e"}) {
    PX_CHECK(schema.Add(name, ValueKind::kNumeric).ok());
  }
  PX_CHECK(schema.Add("d", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("duration", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const char* groups[] = {"g0", "g1", "g2", "g3"};
  const char* hosts[] = {"h0", "h1", "h2"};
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<Value> values;
    values.push_back(rng.UniformInt(0, 9) == 0
                         ? Value::Missing()
                         : Value::Nominal(groups[rng.UniformInt(0, 3)]));
    values.push_back(r == 7 ? Value::Nominal("solo")
                     : rng.UniformInt(0, 11) == 0
                         ? Value::Missing()
                         : Value::Nominal(hosts[rng.UniformInt(0, 2)]));
    for (int c = 0; c < 4; ++c) {
      values.push_back(Value::Number(rng.UniformInt(0, 2)));
    }
    values.push_back(Value::Nominal(rng.UniformInt(0, 1) ? "p" : "q"));
    values.push_back(Value::Number(100 + rng.UniformInt(0, 100)));
    PX_CHECK(log.Add(ExecutionRecord(StrFormat("e%03zu", r),
                                     std::move(values)))
                 .ok());
  }
  return log;
}

TEST(PairCodeStoreEquivalenceTest, EquiJoinPruningIsBitwiseAtEveryBudget) {
  // A nominal isSame = T despite shrinks every first row's partners to its
  // own code bucket. SimButDiff must tally exactly the pairs of the full
  // scan on every tile source: streaming (budget 0), the TilePool (1/8 of
  // a plane, so most rows miss) and the resident plane.
  std::size_t answered = 0;
  for (std::uint64_t seed : {1u, 2u}) {
    const ExecutionLog log = EquiJoinLog(seed, 64);
    const PairSchema schema(log.schema());
    const std::size_t plane =
        PairCodeStore::BytesNeeded(log.size(), log.schema().size());
    for (const char* despite :
         {"group_isSame = T", "group_isSame != F",
          "group_isSame = T AND host_isSame = T",
          "host_isSame = T AND group = g1"}) {
      Query query = GtVsSimQuery(despite);
      if (!PickPair(log, query)) continue;
      Query bound = query;
      ASSERT_TRUE(bound.Bind(schema).ok());
      const std::size_t first = log.Find(query.first_id).value();
      const std::size_t second = log.Find(query.second_id).value();
      for (std::size_t budget : {std::size_t{0}, plane / 8, plane}) {
        for (int threads : {1, 3}) {
          std::vector<Result<Explanation>> answers;
          for (bool prune : {false, true}) {
            const ColumnarLog columns(log);
            const PairCodeStore store(&columns);
            SimButDiffOptions options;
            options.similarity_threshold = 0.5;
            options.pair_code_budget_bytes = budget;
            const SimButDiff baseline(options, &columns, &store);
            const CompiledQuery compiled =
                CompiledQuery::Compile(bound, schema, columns);
            ASSERT_TRUE(compiled.despite
                            .DeriveSelection(log.size(),
                                             options.pair.sim_fraction)
                            .partitioned());
            EnumerationOptions enumeration;
            enumeration.threads = threads;
            enumeration.prune = prune;
            answers.push_back(
                baseline
                    .ExplainPrepared(bound, compiled, {{first, second, 3}},
                                     enumeration)
                    .front());
          }
          const std::string context = StrFormat(
              "seed %llu despite '%s' budget %zu threads %d",
              static_cast<unsigned long long>(seed), despite, budget,
              threads);
          testing::ExpectSameExplanation(answers[1], answers[0], context);
          if (answers[0].ok() && answers[0]->because.width() == 3) {
            ++answered;
          }
        }
      }
    }
  }
  EXPECT_GT(answered, 0u) << "no query produced a full-width explanation";
}

TEST(PairCodeStoreEquivalenceTest, MemoryCapFallbackIsBitwise) {
  const ExecutionLog log = AwkwardRandomLog(5, 32);
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  const std::size_t needed = PairCodeStore::BytesNeeded(
      log.size(), log.schema().size());
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;

  // The exact budget engages the store; one byte less falls back.
  const Engine exact(log, WithBudget(needed));
  const Engine under(log, WithBudget(needed - 1));
  auto exact_prepared = exact.Prepare(query);
  auto under_prepared = under.Prepare(query);
  ASSERT_TRUE(exact_prepared.ok());
  ASSERT_TRUE(under_prepared.ok());
  auto from_exact = exact.Explain(*exact_prepared, request);
  auto from_under = under.Explain(*under_prepared, request);
  ASSERT_TRUE(from_exact.ok());
  ASSERT_TRUE(from_under.ok());
  EXPECT_TRUE(from_exact->pair_store_hit);
  EXPECT_TRUE(from_exact->pair_store_built);  // this call paid the build
  EXPECT_FALSE(from_under->pair_store_hit);
  EXPECT_FALSE(from_under->pair_store_built);
  testing::ExpectSameExplanation(from_exact->explanation, from_under->explanation,
                        "cap fallback");

  // Second call on the warm engine: hit without building.
  auto warm = exact.Explain(*exact_prepared, request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->pair_store_hit);
  EXPECT_FALSE(warm->pair_store_built);
  testing::ExpectSameExplanation(warm->explanation, from_exact->explanation, "warm");
}

// The store contract the end-to-end benchmark's guards rely on, at the
// budgets its workloads run: a whole plane, an eighth of one, and a
// rotation from a warm generation.
TEST(PairCodeStoreEquivalenceTest, PlaneEighthAndRotationContract) {
  const ExecutionLog log = AwkwardRandomLog(17, 40);
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  const double sim = SimButDiffOptions{}.pair.sim_fraction;
  const std::size_t plane =
      PairCodeStore::BytesNeeded(log.size(), log.schema().size());
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;

  {
    // Plane budget: filled on acquisition, read without tile traffic.
    const Engine engine(log, WithBudget(plane, 1));
    const PairCodeStore& store = engine.snapshot()->pair_codes();
    ASSERT_NE(store.Acquire(sim, plane, 1), nullptr);
    EXPECT_TRUE(store.warm(sim));
    auto prepared = engine.Prepare(query);
    ASSERT_TRUE(prepared.ok());
    auto response = engine.Explain(*prepared, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->pair_store_hit);
    EXPECT_EQ(response->tile_hits + response->tile_misses +
                  response->tile_evictions,
              0u);
  }
  {
    // An eighth of a plane: a pool of frames; rows past them stream.
    const Engine engine(log, WithBudget(plane / 8, 1));
    const PairCodeStore& store = engine.snapshot()->pair_codes();
    ASSERT_NE(store.AcquireTilePool(sim, plane / 8), nullptr);
    auto prepared = engine.Prepare(query);
    ASSERT_TRUE(prepared.ok());
    auto response = engine.Explain(*prepared, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->pair_store_hit);
    EXPECT_GT(response->tile_misses, 0u);
    EXPECT_EQ(response->tile_evictions, 0u);
  }
  {
    // A rotation from a warm generation seeds the new plane.
    const std::size_t base_rows = 30;
    ExecutionLog base(log.schema());
    std::vector<ExecutionRecord> delta;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (i < base_rows) {
        ASSERT_TRUE(base.Add(log.at(i)).ok());
      } else {
        delta.push_back(log.at(i));
      }
    }
    LiveEngine live(std::move(base), WithBudget(plane, 1));
    ASSERT_NE(live.engine()->snapshot()->pair_codes().Acquire(sim, plane, 1),
              nullptr);
    ASSERT_TRUE(live.AppendBatch(std::move(delta)).ok());
    auto stats = live.Rotate();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->pair_plane_seeded);
    EXPECT_TRUE(live.engine()->snapshot()->pair_codes().warm(sim));
  }
}

TEST(PairCodeStoreEquivalenceTest, ConcurrentFirstTouchUnderEightThreads) {
  const ExecutionLog log = AwkwardRandomLog(13, 36);
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;

  // Serial reference on its own engine.
  const Engine reference_engine(log, WithBudget(std::size_t{256} << 20, 1));
  auto reference_prepared = reference_engine.Prepare(query);
  ASSERT_TRUE(reference_prepared.ok());
  auto reference = reference_engine.Explain(*reference_prepared, request);
  ASSERT_TRUE(reference.ok());

  // Eight threads race the cold store's first touch on a fresh engine:
  // the plane fill must hand every one of them the same fully built plane.
  const Engine engine(log, WithBudget(std::size_t{256} << 20, 1));
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
  EXPECT_EQ(engine.snapshot()->pair_codes().build_count(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
    EXPECT_TRUE(results[t]->pair_store_hit);
    testing::ExpectSameExplanation(results[t]->explanation, reference->explanation,
                          StrFormat("thread %d", t));
  }
}

TEST(PairCodeStoreEquivalenceTest, BatchRunsOnResidentStore) {
  const ExecutionLog log = AwkwardRandomLog(13, 36);
  Query base = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, base));
  const Engine engine(log, WithBudget(std::size_t{256} << 20, 1));
  const Engine streaming(log, WithBudget(0, 1));

  // Two queries with distinct pairs of interest.
  std::vector<Query> variants;
  for (std::size_t skip : {0u, 3u}) {
    auto poi = reference::FindPairOfInterest(log, base, skip);
    if (!poi.ok()) break;
    Query query = base;
    query.first_id = log.at(poi->first).id;
    query.second_id = log.at(poi->second).id;
    variants.push_back(query);
  }
  ASSERT_GE(variants.size(), 2u);

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;
  std::vector<PreparedQuery> prepared;
  std::vector<PreparedQuery> prepared_streaming;
  for (const Query& query : variants) {
    auto one = engine.Prepare(query);
    ASSERT_TRUE(one.ok());
    prepared.push_back(std::move(one).value());
    auto two = streaming.Prepare(query);
    ASSERT_TRUE(two.ok());
    prepared_streaming.push_back(std::move(two).value());
  }
  std::vector<Engine::BatchItem> items;
  std::vector<Engine::BatchItem> items_streaming;
  for (std::size_t q = 0; q < prepared.size(); ++q) {
    items.push_back(Engine::BatchItem{&prepared[q], request});
    items_streaming.push_back(
        Engine::BatchItem{&prepared_streaming[q], request});
  }
  auto batch = engine.ExplainBatch(items);
  auto batch_streaming = streaming.ExplainBatch(items_streaming);
  for (std::size_t q = 0; q < items.size(); ++q) {
    ASSERT_TRUE(batch[q].ok()) << batch[q].status().ToString();
    ASSERT_TRUE(batch_streaming[q].ok());
    EXPECT_TRUE(batch[q]->batched);
    EXPECT_TRUE(batch[q]->pair_store_hit);
    EXPECT_FALSE(batch_streaming[q]->pair_store_hit);
    testing::ExpectSameExplanation(batch[q]->explanation,
                          batch_streaming[q]->explanation,
                          StrFormat("batch query %zu", q));
    // And identical to the per-call resident path.
    auto per_call = engine.Explain(prepared[q], request);
    ASSERT_TRUE(per_call.ok());
    testing::ExpectSameExplanation(batch[q]->explanation, per_call->explanation,
                          StrFormat("batch vs per-call %zu", q));
  }
}

/// A batch response as the explanation it carries, or its status.
Result<Explanation> AsExplanation(const Result<ExplainResponse>& response) {
  if (!response.ok()) return response.status();
  return response->explanation;
}

TEST(PairCodeStoreEquivalenceTest, RandomizedBatchMatchesPerCallAndLegacy) {
  // Seeded rounds of 2-9 item SimButDiff batches. A batch's leading items
  // are a base-atom despite (row-filter pruning), a nominal isSame = T
  // despite (equi-join buckets), an always-false despite and a duplicate
  // of the first pair of interest; the rest draw from those shapes.
  // Widths run 1-4. At every budget from streaming to a full plane, at 1
  // and 3 threads, on a cold and then a warm store, each response must be
  // bitwise the per-call Explain and the reference.
  const char* const kDespites[] = {"color = red AND x_isSame = T",
                                   "color_isSame = T", "color_isSame = X"};
  std::size_t produced = 0;
  for (std::uint64_t round = 0; round < 32; ++round) {
    Rng rng(7000 + round);
    const ExecutionLog log = AwkwardRandomLog(
        100 + round, static_cast<std::size_t>(rng.UniformInt(24, 48)));
    const std::size_t n = log.size();
    SimButDiffOptions sim_but_diff;
    sim_but_diff.similarity_threshold = round % 2 == 0 ? 0.9 : 0.5;
    const std::size_t batch_size = 2 + round % 8;

    std::vector<Query> queries;
    std::vector<std::size_t> widths;
    for (std::size_t q = 0; q < batch_size; ++q) {
      const std::size_t shape =
          q < 3 ? q : static_cast<std::size_t>(rng.UniformInt(0, 2));
      Query query = GtVsSimQuery(kDespites[shape]);
      if (q == 3) {
        query = queries[0];  // the duplicate pair of interest
      } else if (shape == 2 ||
                 !PickPair(log, query,
                           static_cast<std::size_t>(rng.UniformInt(0, 5)))) {
        // SimButDiff answers any pair of interest, Definition 1 or not.
        const std::size_t first = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
        query.first_id = log.at(first).id;
        query.second_id = log.at((first + 1) % n).id;
      }
      queries.push_back(query);
      widths.push_back(static_cast<std::size_t>(rng.UniformInt(1, 4)));
    }

    const Engine reference_engine(log);
    std::vector<Result<reference::Clause>> expected;
    for (std::size_t q = 0; q < batch_size; ++q) {
      auto prepared = reference_engine.Prepare(queries[q]);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      expected.push_back(reference::SimButDiff(
          log, prepared->bound(), prepared->poi_first(),
          prepared->poi_second(), widths[q],
          sim_but_diff.similarity_threshold));
    }

    const std::size_t plane =
        PairCodeStore::BytesNeeded(n, log.schema().size());
    const std::size_t tile = TilePool::TileBytes(n, log.schema().size());
    for (std::size_t budget : {std::size_t{0}, tile, plane / 8, plane}) {
      for (int threads : {1, 3}) {
        EngineOptions options;
        options.sim_but_diff = sim_but_diff;
        options.sim_but_diff.pair_code_budget_bytes = budget;
        options.sim_but_diff.threads = threads;
        const Engine engine(log, options);
        std::vector<PreparedQuery> prepared;
        for (const Query& query : queries) {
          auto one = engine.Prepare(query);
          ASSERT_TRUE(one.ok()) << one.status().ToString();
          prepared.push_back(std::move(one).value());
        }
        std::vector<Engine::BatchItem> items;
        for (std::size_t q = 0; q < batch_size; ++q) {
          ExplainRequest request;
          request.technique = Technique::kSimButDiff;
          request.width = widths[q];
          items.push_back(Engine::BatchItem{&prepared[q], request});
        }
        for (const char* store : {"cold", "warm"}) {
          const auto batch = engine.ExplainBatch(items);
          ASSERT_EQ(batch.size(), items.size());
          for (std::size_t q = 0; q < batch_size; ++q) {
            const std::string context = StrFormat(
                "round %llu budget %zu threads %d %s store item %zu",
                static_cast<unsigned long long>(round), budget, threads,
                store, q);
            const Result<Explanation> answer = AsExplanation(batch[q]);
            if (answer.ok()) ++produced;
            testing::ExpectSameExplanation(
                answer,
                AsExplanation(engine.Explain(prepared[q], items[q].request)),
                context + " vs per-call");
            testing::ExpectMatchesReference(answer, expected[q],
                                            context + " vs reference");
          }
        }
      }
    }
  }
  // The comparison must exercise real explanations, not just failures.
  EXPECT_GT(produced, 0u);
}

}  // namespace
}  // namespace perfxplain
