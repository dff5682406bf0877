#include "core/pair_enumeration.h"

#include <gtest/gtest.h>

#include <set>

#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::GtVsSimQuery;
using perfxplain::testing::TinyRecord;
using perfxplain::testing::TinySchema;

class PairEnumerationTest : public ::testing::Test {
 protected:
  PairEnumerationTest() : log_(TinySchema()), schema_(TinySchema()) {
    PX_CHECK(log_.Add(TinyRecord("a", 1, "red", 100)).ok());
    PX_CHECK(log_.Add(TinyRecord("b", 1, "red", 102)).ok());
    PX_CHECK(log_.Add(TinyRecord("c", 9, "blue", 200)).ok());
    PX_CHECK(log_.Add(TinyRecord("d", 9, "blue", 198)).ok());
    query_ = GtVsSimQuery();
    PX_CHECK(query_.Bind(schema_).ok());
  }

  /// The Definition 8/9 label counts of `query`: a ScanRelatedPairs that
  /// buffers no pair.
  RelatedCounts Count(const Query& query) const {
    const ColumnarLog columns(log_);
    return ScanRelatedPairs(columns,
                            CompiledQuery::Compile(query, schema_, columns),
                            options_.sim_fraction,
                            EnumerationOptions{0, /*sample_buffer_cap=*/0})
        .counts;
  }

  ExecutionLog log_;
  PairSchema schema_;
  Query query_;
  PairFeatureOptions options_;
};

TEST_F(PairEnumerationTest, VisitsAllOrderedPairsOnce) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  ForEachOrderedPair(log_, schema_, options_,
                     [&](std::size_t i, std::size_t j,
                         const PairFeatureView&) {
                       EXPECT_NE(i, j);
                       EXPECT_TRUE(seen.emplace(i, j).second);
                       return true;
                     });
  EXPECT_EQ(seen.size(), 12u);  // 4 * 3 ordered pairs
}

TEST_F(PairEnumerationTest, EarlyExitStopsEnumeration) {
  int visits = 0;
  ForEachOrderedPair(log_, schema_, options_,
                     [&](std::size_t, std::size_t, const PairFeatureView&) {
                       ++visits;
                       return visits < 5;
                     });
  EXPECT_EQ(visits, 5);
}

TEST_F(PairEnumerationTest, ClassifyPairLabels) {
  PairFeatureView gt(&schema_, &log_.at(2), &log_.at(0), &options_);  // c,a
  EXPECT_EQ(ClassifyPair(query_, gt), PairLabel::kObserved);
  PairFeatureView sim(&schema_, &log_.at(0), &log_.at(1), &options_);
  EXPECT_EQ(ClassifyPair(query_, sim), PairLabel::kExpected);
  PairFeatureView lt(&schema_, &log_.at(0), &log_.at(2), &options_);
  EXPECT_EQ(ClassifyPair(query_, lt), PairLabel::kUnrelated);
}

TEST_F(PairEnumerationTest, CountRelatedPairs) {
  const RelatedCounts counts = Count(query_);
  EXPECT_EQ(counts.observed, 4u);
  EXPECT_EQ(counts.expected, 4u);
  EXPECT_EQ(counts.total(), 8u);
}

TEST_F(PairEnumerationTest, DespiteRestrictsRelatedness) {
  Query query = GtVsSimQuery("color_isSame = T");
  ASSERT_TRUE(query.Bind(schema_).ok());
  const RelatedCounts counts = Count(query);
  EXPECT_EQ(counts.observed, 0u);   // GT pairs cross the color groups
  EXPECT_EQ(counts.expected, 4u);
}

TEST_F(PairEnumerationTest, BuildTrainingExamplesPutsPoiFirst) {
  Rng rng(1);
  auto examples = BuildTrainingExamples(log_, schema_, query_, 2, 0,
                                        options_, SamplerOptions(), rng);
  ASSERT_TRUE(examples.ok()) << examples.status().ToString();
  ASSERT_FALSE(examples->empty());
  EXPECT_EQ(examples->front().first, 2u);
  EXPECT_EQ(examples->front().second, 0u);
  EXPECT_TRUE(examples->front().observed);
  // With a huge sample budget all 8 related pairs are kept (poi included).
  EXPECT_EQ(examples->size(), 8u);
  // The pair of interest appears exactly once.
  std::size_t poi_count = 0;
  for (const auto& example : *examples) {
    if (example.first == 2 && example.second == 0) ++poi_count;
  }
  EXPECT_EQ(poi_count, 1u);
  // Every example has a fully materialized feature vector.
  for (const auto& example : *examples) {
    EXPECT_EQ(example.features.size(), schema_.size());
  }
}

TEST_F(PairEnumerationTest, BuildTrainingExamplesValidatesPoi) {
  Rng rng(2);
  EXPECT_FALSE(BuildTrainingExamples(log_, schema_, query_, 1, 1, options_,
                                     SamplerOptions(), rng)
                   .ok());
  EXPECT_FALSE(BuildTrainingExamples(log_, schema_, query_, 99, 0, options_,
                                     SamplerOptions(), rng)
                   .ok());
}

TEST_F(PairEnumerationTest, BuildTrainingExamplesFailsWithNoRelatedPairs) {
  Query query = GtVsSimQuery("color_diff = (purple,purple)");
  ASSERT_TRUE(query.Bind(schema_).ok());
  Rng rng(3);
  const auto examples = BuildTrainingExamples(
      log_, schema_, query, 2, 0, options_, SamplerOptions(), rng);
  EXPECT_FALSE(examples.ok());
  EXPECT_EQ(examples.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PairEnumerationTest, FindPairOfInterestReturnsFirstObserved) {
  auto poi = FindPairOfInterest(log_, schema_, query_, options_);
  ASSERT_TRUE(poi.ok());
  // Row-major: first observed pair is (c, a) = (2, 0).
  EXPECT_EQ(poi->first, 2u);
  EXPECT_EQ(poi->second, 0u);
}

TEST_F(PairEnumerationTest, FindPairOfInterestSkips) {
  auto poi = FindPairOfInterest(log_, schema_, query_, options_, 1);
  ASSERT_TRUE(poi.ok());
  EXPECT_EQ(poi->first, 2u);
  EXPECT_EQ(poi->second, 1u);  // (c, b) is the second observed pair
  auto exhausted = FindPairOfInterest(log_, schema_, query_, options_, 100);
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kNotFound);
}

/// Selection-vector pruning must be invisible in every result: the same
/// counts, the same row-major related-pair lists, the same sampled pairs
/// for the same seed (buffered and streaming), at several thread counts.
class PruningEquivalenceTest : public ::testing::Test {
 protected:
  PruningEquivalenceTest() : log_(TinySchema()), schema_(TinySchema()) {
    PX_CHECK(log_.Add(TinyRecord("a", 1, "red", 100)).ok());
    PX_CHECK(log_.Add(TinyRecord("b", 1, "red", 102)).ok());
    PX_CHECK(log_.Add(TinyRecord("c", 9, "blue", 200)).ok());
    PX_CHECK(log_.Add(TinyRecord("d", 9, "blue", 198)).ok());
    PX_CHECK(log_.Add(TinyRecord("e", 1, "red", 150)).ok());
    PX_CHECK(log_.Add(TinyRecord("f", 9, "red", 95)).ok());
    // Missing nominal cells and a singleton code: no equi-join partners.
    PX_CHECK(log_.Add(ExecutionRecord("g", {Value::Number(1),
                                            Value::Missing(),
                                            Value::Number(101)}))
                 .ok());
    PX_CHECK(log_.Add(TinyRecord("h", 9, "green", 190)).ok());
    PX_CHECK(log_.Add(ExecutionRecord("i", {Value::Number(9),
                                            Value::Missing(),
                                            Value::Number(205)}))
                 .ok());
    PX_CHECK(log_.Add(TinyRecord("j", 9, "blue", 96)).ok());
  }

  /// Bound query with `despite_text`, or nullopt if it cannot bind.
  Query BoundQuery(const std::string& despite_text) {
    Query query = GtVsSimQuery(despite_text);
    PX_CHECK(query.Bind(schema_).ok());
    return query;
  }

  ExecutionLog log_;
  PairSchema schema_;
};

TEST_F(PruningEquivalenceTest, CountCollectSampleAndFindMatchUnpruned) {
  const ColumnarLog columns(log_);
  for (const char* despite :
       {"color = red", "x = 1", "x >= 5", "color != red",
        "color_diff = (red,blue)", "x_isSame = T",
        "x_isSame = T AND color = red", "color_isSame = T",
        "color_isSame != F", "color_isSame = T AND x_isSame = T",
        "color_isSame = T AND color = red",
        "color_isSame = T AND color_diff = (red,blue)"}) {
    const Query query = BoundQuery(despite);
    const CompiledQuery compiled =
        CompiledQuery::Compile(query, schema_, columns);
    for (int threads : {1, 3}) {
      EnumerationOptions pruned;
      pruned.threads = threads;
      EnumerationOptions unpruned = pruned;
      unpruned.prune = false;

      // Count-only scans (no pair buffered), then buffered ones.
      EnumerationOptions pruned_count = pruned;
      pruned_count.sample_buffer_cap = 0;
      EnumerationOptions unpruned_count = unpruned;
      unpruned_count.sample_buffer_cap = 0;
      const RelatedCounts a =
          ScanRelatedPairs(columns, compiled, 0.10, pruned_count).counts;
      const RelatedCounts b =
          ScanRelatedPairs(columns, compiled, 0.10, unpruned_count).counts;
      EXPECT_EQ(a.observed, b.observed) << despite;
      EXPECT_EQ(a.expected, b.expected) << despite;

      const std::vector<PairRef> pruned_pairs =
          ScanRelatedPairs(columns, compiled, 0.10, pruned).related;
      const std::vector<PairRef> unpruned_pairs =
          ScanRelatedPairs(columns, compiled, 0.10, unpruned).related;
      ASSERT_EQ(pruned_pairs.size(), unpruned_pairs.size()) << despite;
      for (std::size_t p = 0; p < pruned_pairs.size(); ++p) {
        EXPECT_EQ(pruned_pairs[p].first, unpruned_pairs[p].first);
        EXPECT_EQ(pruned_pairs[p].second, unpruned_pairs[p].second);
        EXPECT_EQ(pruned_pairs[p].observed, unpruned_pairs[p].observed);
      }

      if (unpruned_pairs.empty()) continue;
      const std::size_t poi_first = unpruned_pairs.front().first;
      const std::size_t poi_second = unpruned_pairs.front().second;
      // Buffered replay and (cap 0) streaming draws, both vs unpruned.
      for (std::size_t cap : {std::size_t{1} << 21, std::size_t{0}}) {
        EnumerationOptions pruned_cap = pruned;
        pruned_cap.sample_buffer_cap = cap;
        EnumerationOptions unpruned_cap = unpruned;
        unpruned_cap.sample_buffer_cap = cap;
        Rng rng_a(99);
        Rng rng_b(99);
        auto sampled_a = SampleFromScan(
            ScanRelatedPairs(columns, compiled, 0.10, pruned_cap), columns,
            compiled, poi_first, poi_second, 0.10, SamplerOptions(), rng_a,
            /*balanced=*/true, pruned_cap);
        auto sampled_b = SampleFromScan(
            ScanRelatedPairs(columns, compiled, 0.10, unpruned_cap), columns,
            compiled, poi_first, poi_second, 0.10, SamplerOptions(), rng_b,
            /*balanced=*/true, unpruned_cap);
        ASSERT_EQ(sampled_a.ok(), sampled_b.ok()) << despite;
        if (!sampled_a.ok()) continue;
        ASSERT_EQ(sampled_a->size(), sampled_b->size())
            << despite << " cap " << cap;
        for (std::size_t p = 0; p < sampled_a->size(); ++p) {
          EXPECT_EQ((*sampled_a)[p].first, (*sampled_b)[p].first);
          EXPECT_EQ((*sampled_a)[p].second, (*sampled_b)[p].second);
        }
      }

      // FindPairOfInterest walks the same row-major matching sequence.
      for (std::size_t skip : {std::size_t{0}, std::size_t{1}}) {
        auto found = FindPairOfInterest(columns, compiled, 0.10, skip);
        auto full_scan =
            FindPairOfInterest(columns, compiled, 0.10, skip, unpruned);
        ASSERT_EQ(found.ok(), full_scan.ok()) << despite;
        if (found.ok()) {
          EXPECT_EQ(*found, *full_scan) << despite;
        }
        Query legacy_query = query;
        auto reference =
            FindPairOfInterest(log_, schema_, legacy_query,
                               PairFeatureOptions(), skip);
        ASSERT_EQ(found.ok(), reference.ok()) << despite;
        if (found.ok()) {
          EXPECT_EQ(found->first, reference->first) << despite;
          EXPECT_EQ(found->second, reference->second) << despite;
        }
      }
    }
  }
}

TEST_F(PruningEquivalenceTest, ScanPlusReplayMatchesStreamedDraws) {
  // The buffered replay against the draws SampleFromScan streams over an
  // overflowed (count-only) scan of the same query.
  const ColumnarLog columns(log_);
  const Query query = BoundQuery("color = red");
  const CompiledQuery compiled =
      CompiledQuery::Compile(query, schema_, columns);
  const RelatedPairScan scan = ScanRelatedPairs(columns, compiled, 0.10);
  ASSERT_FALSE(scan.overflowed);
  ASSERT_GT(scan.counts.total(), 0u);
  EXPECT_EQ(scan.related.size(), scan.counts.total());
  const std::size_t poi_first = scan.related.front().first;
  const std::size_t poi_second = scan.related.front().second;
  const EnumerationOptions count_only{0, /*sample_buffer_cap=*/0};
  const RelatedPairScan overflowed =
      ScanRelatedPairs(columns, compiled, 0.10, count_only);
  ASSERT_TRUE(overflowed.overflowed);
  Rng rng_a(7);
  Rng rng_b(7);
  auto replayed = ReplaySampleDraws(scan, columns.rows(), poi_first,
                                    poi_second, SamplerOptions(), rng_a);
  auto direct = SampleFromScan(overflowed, columns, compiled, poi_first,
                               poi_second, 0.10, SamplerOptions(), rng_b,
                               /*balanced=*/true, count_only);
  ASSERT_TRUE(replayed.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(replayed->size(), direct->size());
  for (std::size_t p = 0; p < replayed->size(); ++p) {
    EXPECT_EQ((*replayed)[p].first, (*direct)[p].first);
    EXPECT_EQ((*replayed)[p].second, (*direct)[p].second);
    EXPECT_EQ((*replayed)[p].observed, (*direct)[p].observed);
  }
}

}  // namespace
}  // namespace perfxplain
