// The ResultCache contract: keying across technique/width/seed/evaluate
// (hits only for genuinely identical requests), LRU eviction under the
// byte budget, wholesale invalidation on snapshot rotation while old
// PreparedQueries keep draining, and the never-cache-a-partial rule — a
// request cancelled or deadline-expired mid-miss inserts nothing. The
// concurrency-relevant Engine paths (shared cache across threads) run
// under ThreadSanitizer in CI via EngineTest/PairCodeStore suites; the
// cache itself is a single mutex around a map.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/cancel.h"
#include "core/engine.h"
#include "core/pair_enumeration.h"
#include "core/result_cache.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::AdversarialLogSpec;
using testing::GtVsSimQuery;

ExecutionLog CacheLog(std::size_t rows = 24, std::uint64_t seed = 7) {
  AdversarialLogSpec spec;
  spec.name = "cache";
  spec.rows = rows;
  spec.seed = seed;
  return testing::AdversarialLog(spec);
}

using testing::PickPair;

// --------------------------------------------------- direct cache contract

/// The estimated footprint of one cached empty-ish entry under `key_size`
/// key bytes — measured, not assumed, so the eviction tests track the
/// estimator instead of hardcoding it.
std::size_t ProbeEntryBytes(std::size_t key_size) {
  ResultCache probe(std::size_t{1} << 20);
  probe.Put(std::string(key_size, 'k'), ResultCache::Value{});
  return probe.stats().bytes;
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  const std::size_t entry = ProbeEntryBytes(4);
  ResultCache cache(2 * entry);  // room for exactly two entries
  cache.Put("1|aa", ResultCache::Value{});
  cache.Put("1|bb", ResultCache::Value{});
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Refresh aa, insert cc: bb is now least-recent and must go.
  EXPECT_TRUE(cache.Get("1|aa").has_value());
  cache.Put("1|cc", ResultCache::Value{});
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Get("1|aa").has_value());
  EXPECT_FALSE(cache.Get("1|bb").has_value());
  EXPECT_TRUE(cache.Get("1|cc").has_value());
  EXPECT_LE(cache.stats().bytes, cache.budget_bytes());
}

TEST(ResultCacheTest, EntryLargerThanBudgetIsNotInserted) {
  const std::size_t entry = ProbeEntryBytes(4);
  ResultCache cache(entry - 1);
  cache.Put("1|aa", ResultCache::Value{});
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_FALSE(cache.Get("1|aa").has_value());
}

TEST(ResultCacheTest, RePutRefreshesInsteadOfDuplicating) {
  const std::size_t entry = ProbeEntryBytes(4);
  ResultCache cache(2 * entry);
  cache.Put("1|aa", ResultCache::Value{});
  cache.Put("1|bb", ResultCache::Value{});
  // Re-Put of aa (a concurrent miss racing to insert the same result)
  // keeps one entry and bumps aa's recency, so bb is the next victim.
  cache.Put("1|aa", ResultCache::Value{});
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.Put("1|cc", ResultCache::Value{});
  EXPECT_TRUE(cache.Get("1|aa").has_value());
  EXPECT_FALSE(cache.Get("1|bb").has_value());
}

TEST(ResultCacheTest, InvalidateSnapshotDropsExactlyThatPrefix) {
  ResultCache cache(std::size_t{1} << 20);
  cache.Put(ResultCache::SnapshotPrefix(7) + "q1", ResultCache::Value{});
  cache.Put(ResultCache::SnapshotPrefix(7) + "q2", ResultCache::Value{});
  cache.Put(ResultCache::SnapshotPrefix(70) + "q1", ResultCache::Value{});
  cache.Put(ResultCache::SnapshotPrefix(8) + "q1", ResultCache::Value{});
  // "7|" must not sweep up "70|" — the prefix ends at the separator.
  EXPECT_EQ(cache.InvalidateSnapshot(7), 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(
      cache.Get(ResultCache::SnapshotPrefix(70) + "q1").has_value());
  EXPECT_TRUE(cache.Get(ResultCache::SnapshotPrefix(8) + "q1").has_value());
  EXPECT_EQ(cache.InvalidateSnapshot(7), 0u);  // idempotent
}

// -------------------------------------------------- engine-level contract

TEST(ResultCacheTest, SecondIdenticalRequestHitsBitwise) {
  const ExecutionLog log = CacheLog();
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  EngineOptions options;
  options.result_cache_bytes = std::size_t{1} << 20;
  const Engine engine(log, options);
  ASSERT_NE(engine.result_cache(), nullptr);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;
  auto miss = engine.Explain(*prepared, request);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->result_cache_hit);
  auto hit = engine.Explain(*prepared, request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->result_cache_hit);
  // A hit is the full finished response, bitwise.
  EXPECT_EQ(hit->explanation.ToString(), miss->explanation.ToString());
  ASSERT_EQ(hit->explanation.because_trace.size(),
            miss->explanation.because_trace.size());
  for (std::size_t a = 0; a < miss->explanation.because_trace.size(); ++a) {
    EXPECT_EQ(hit->explanation.because_trace[a].score,
              miss->explanation.because_trace[a].score);
  }
  EXPECT_EQ(engine.result_cache()->stats().hits, 1u);
}

TEST(ResultCacheTest, KeyingSeparatesTechniqueWidthSeedAndEvaluate) {
  const ExecutionLog log = CacheLog();
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  EngineOptions options;
  options.result_cache_bytes = std::size_t{1} << 20;
  const Engine engine(log, options);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());

  ExplainRequest base;
  base.technique = Technique::kSimButDiff;
  base.width = 3;
  ASSERT_TRUE(engine.Explain(*prepared, base).ok());

  // Width, technique, seed and evaluate each key a distinct entry.
  ExplainRequest width = base;
  width.width = 2;
  auto by_width = engine.Explain(*prepared, width);
  ASSERT_TRUE(by_width.ok());
  EXPECT_FALSE(by_width->result_cache_hit);

  ExplainRequest technique = base;
  technique.technique = Technique::kRuleOfThumb;
  auto by_technique = engine.Explain(*prepared, technique);
  ASSERT_TRUE(by_technique.ok());
  EXPECT_FALSE(by_technique->result_cache_hit);

  ExplainRequest seeded = base;
  seeded.technique = Technique::kPerfXplain;
  seeded.seed = 99;
  auto by_seed = engine.Explain(*prepared, seeded);
  ASSERT_TRUE(by_seed.ok());
  EXPECT_FALSE(by_seed->result_cache_hit);
  ExplainRequest reseeded = seeded;
  reseeded.seed = 100;
  auto by_other_seed = engine.Explain(*prepared, reseeded);
  ASSERT_TRUE(by_other_seed.ok());
  EXPECT_FALSE(by_other_seed->result_cache_hit);

  ExplainRequest evaluated = base;
  evaluated.evaluate = true;
  auto by_evaluate = engine.Explain(*prepared, evaluated);
  ASSERT_TRUE(by_evaluate.ok());
  EXPECT_FALSE(by_evaluate->result_cache_hit);
  ASSERT_TRUE(by_evaluate->metrics.has_value());

  // Each repeats as a hit — including the evaluate one, whose metrics
  // ride in the cached value.
  EXPECT_TRUE(engine.Explain(*prepared, base)->result_cache_hit);
  EXPECT_TRUE(engine.Explain(*prepared, width)->result_cache_hit);
  EXPECT_TRUE(engine.Explain(*prepared, technique)->result_cache_hit);
  EXPECT_TRUE(engine.Explain(*prepared, seeded)->result_cache_hit);
  auto evaluate_hit = engine.Explain(*prepared, evaluated);
  ASSERT_TRUE(evaluate_hit.ok());
  EXPECT_TRUE(evaluate_hit->result_cache_hit);
  ASSERT_TRUE(evaluate_hit->metrics.has_value());
  EXPECT_EQ(evaluate_hit->metrics->precision, by_evaluate->metrics->precision);
  EXPECT_EQ(evaluate_hit->metrics->relevance, by_evaluate->metrics->relevance);

  // Thread count is observation-free by construction and must NOT key.
  ExplainRequest threaded = base;
  threaded.threads = 4;
  auto by_threads = engine.Explain(*prepared, threaded);
  ASSERT_TRUE(by_threads.ok());
  EXPECT_TRUE(by_threads->result_cache_hit);
}

TEST(ResultCacheTest, SnapshotRotationInvalidatesWhileOldQueriesDrain) {
  // The rotation pattern: two engines over two snapshots share one cache;
  // the rotator invalidates the retired snapshot's entries wholesale, and
  // PreparedQueries still pointing at the old snapshot keep draining
  // correctly (they recompute and re-cache; correctness never depended on
  // invalidation, which only reclaims bytes).
  const ExecutionLog old_log = CacheLog(24, 7);
  const ExecutionLog new_log = CacheLog(24, 8);
  Query old_query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(old_log, old_query));
  Query new_query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(new_log, new_query));

  auto cache = std::make_shared<ResultCache>(std::size_t{1} << 20);
  EngineOptions options;
  options.result_cache = cache;
  const Engine old_engine(old_log, options);
  const Engine new_engine(new_log, options);
  ASSERT_NE(old_engine.snapshot()->id(), new_engine.snapshot()->id());

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;
  auto old_prepared = old_engine.Prepare(old_query);
  ASSERT_TRUE(old_prepared.ok());
  ASSERT_TRUE(old_engine.Explain(*old_prepared, request).ok());
  auto new_prepared = new_engine.Prepare(new_query);
  ASSERT_TRUE(new_prepared.ok());
  // The same PXQL text against the new snapshot is a different key.
  auto across = new_engine.Explain(*new_prepared, request);
  ASSERT_TRUE(across.ok());
  EXPECT_FALSE(across->result_cache_hit);
  EXPECT_EQ(cache->stats().entries, 2u);

  // Rotate: drop the old snapshot's entries; the new one's stay hot.
  EXPECT_EQ(cache->InvalidateSnapshot(old_engine.snapshot()->id()), 1u);
  EXPECT_EQ(cache->stats().entries, 1u);
  EXPECT_TRUE(new_engine.Explain(*new_prepared, request)->result_cache_hit);

  // An old PreparedQuery still drains: recomputes (miss) and re-caches.
  auto draining = old_engine.Explain(*old_prepared, request);
  ASSERT_TRUE(draining.ok());
  EXPECT_FALSE(draining->result_cache_hit);
  EXPECT_TRUE(old_engine.Explain(*old_prepared, request)->result_cache_hit);
}

TEST(ResultCacheTest, CancelledMissNeverCachesPartial) {
  const ExecutionLog log = CacheLog();
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  EngineOptions options;
  options.result_cache_bytes = std::size_t{1} << 20;
  const Engine engine(log, options);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;
  auto token = std::make_shared<CancelToken>();
  token->Cancel();  // fires at the first checkpoint, mid-miss
  ExplainRequest cancelled = request;
  cancelled.cancel = token;
  auto aborted = engine.Explain(*prepared, cancelled);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.result_cache()->stats().insertions, 0u);

  // The identical key without the token: still a miss (nothing partial
  // was cached), then a hit once the full response exists.
  auto recomputed = engine.Explain(*prepared, request);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed->result_cache_hit);
  EXPECT_TRUE(engine.Explain(*prepared, request)->result_cache_hit);
}

TEST(ResultCacheTest, DeadlineMissNeverCachesPartial) {
  // A 600-row log keeps the SimButDiff scan comfortably above the 1 ms
  // deadline, so the request dies mid-scan (or mid-build) on this path.
  const ExecutionLog log = CacheLog(600, 11);
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  EngineOptions options;
  options.result_cache_bytes = std::size_t{1} << 20;
  const Engine engine(log, options);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;
  ExplainRequest hurried = request;
  hurried.deadline_ms = 1;
  auto expired = engine.Explain(*prepared, hurried);
  if (!expired.ok()) {
    EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(engine.result_cache()->stats().insertions, 0u);
  }
  // Either way the unhurried request computes the full answer and only a
  // complete response is ever served later.
  auto full = engine.Explain(*prepared, request);
  ASSERT_TRUE(full.ok());
  auto again = engine.Explain(*prepared, request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->explanation.ToString(), full->explanation.ToString());
}

TEST(ResultCacheTest, BatchConsultsAndFillsTheSharedCache) {
  const ExecutionLog log = CacheLog();
  Query base = GtVsSimQuery("color_isSame = T");
  std::vector<Query> variants;
  for (std::size_t skip : {0u, 2u, 4u}) {
    Query query = base;
    if (!PickPair(log, query, skip)) break;
    variants.push_back(query);
  }
  ASSERT_GE(variants.size(), 2u);
  EngineOptions options;
  options.result_cache_bytes = std::size_t{1} << 20;
  options.sim_but_diff.threads = 1;
  const Engine engine(log, options);

  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  request.width = 3;
  std::vector<PreparedQuery> prepared;
  for (const Query& query : variants) {
    auto one = engine.Prepare(query);
    ASSERT_TRUE(one.ok());
    prepared.push_back(std::move(one).value());
  }
  std::vector<Engine::BatchItem> items;
  for (const PreparedQuery& one : prepared) {
    items.push_back(Engine::BatchItem{&one, request});
  }
  auto cold = engine.ExplainBatch(items);
  for (std::size_t q = 0; q < items.size(); ++q) {
    ASSERT_TRUE(cold[q].ok()) << cold[q].status().ToString();
    EXPECT_FALSE(cold[q]->result_cache_hit);
  }
  // The whole batch repeats as hits — no scan, shared or per-call.
  auto warm = engine.ExplainBatch(items);
  for (std::size_t q = 0; q < items.size(); ++q) {
    ASSERT_TRUE(warm[q].ok());
    EXPECT_TRUE(warm[q]->result_cache_hit);
    EXPECT_EQ(warm[q]->explanation.ToString(),
              cold[q]->explanation.ToString());
  }
}

TEST(ResultCacheTest, BatchLooksUpEachPerCallItemOnce) {
  // Items the batch answers on the per-call path (a RuleOfThumb request,
  // an auto-despite PerfXplain request) are looked up in the cache once,
  // by the batch — a miss is counted once per item, not once by the batch
  // and again by Explain.
  const ExecutionLog log = CacheLog();
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(PickPair(log, query));
  EngineOptions options;
  options.result_cache_bytes = std::size_t{1} << 20;
  options.explainer.threads = 1;
  const Engine engine(log, options);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  ExplainRequest rule_of_thumb;
  rule_of_thumb.technique = Technique::kRuleOfThumb;
  ExplainRequest auto_despite;
  auto_despite.technique = Technique::kPerfXplain;
  auto_despite.auto_despite = true;
  const std::vector<Engine::BatchItem> items = {
      Engine::BatchItem{&*prepared, rule_of_thumb},
      Engine::BatchItem{&*prepared, auto_despite}};
  const auto responses = engine.ExplainBatch(items);
  ASSERT_EQ(responses.size(), items.size());
  EXPECT_EQ(engine.result_cache()->stats().misses, 2u);
  EXPECT_EQ(engine.result_cache()->stats().hits, 0u);
}

}  // namespace
}  // namespace perfxplain
