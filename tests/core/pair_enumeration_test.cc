#include "core/pair_enumeration.h"

#include <gtest/gtest.h>

#include <set>

#include "ml/encoded_dataset.h"
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

  /// The engine's sample (lines 1-2 of Algorithm 1) of `query` for the
  /// pair of interest (first, second).
  Result<std::vector<PairRef>> Sample(const Query& query, std::size_t first,
                                      std::size_t second, Rng& rng) const {
    const ColumnarLog columns(log_);
    const CompiledQuery compiled =
        CompiledQuery::Compile(query, schema_, columns);
    return SampleFromScan(
        ScanRelatedPairs(columns, compiled, options_.sim_fraction), columns,
        compiled, first, second, options_.sim_fraction, SamplerOptions(),
        rng);
  }

  /// The engine's FindPairOfInterest of `query`.
  Result<std::pair<std::size_t, std::size_t>> Find(const Query& query,
                                                   std::size_t skip) const {
    const ColumnarLog columns(log_);
    return FindPairOfInterest(columns,
                              CompiledQuery::Compile(query, schema_, columns),
                              options_.sim_fraction, skip);
  }

  ExecutionLog log_;
  PairSchema schema_;
  Query query_;
  PairFeatureOptions options_;
};

TEST_F(PairEnumerationTest, VisitsAllOrderedPairsOnce) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  ForEachCandidatePair(PairSelection::AllPairs(log_.size()),
                       [&](std::size_t i, std::size_t j) {
                         EXPECT_NE(i, j);
                         EXPECT_TRUE(seen.emplace(i, j).second);
                         return true;
                       });
  EXPECT_EQ(seen.size(), 12u);  // 4 * 3 ordered pairs
}

TEST_F(PairEnumerationTest, EarlyExitStopsEnumeration) {
  int visits = 0;
  ForEachCandidatePair(PairSelection::AllPairs(log_.size()),
                       [&](std::size_t, std::size_t) {
                         ++visits;
                         return visits < 5;
                       });
  EXPECT_EQ(visits, 5);
}

TEST_F(PairEnumerationTest, ClassifyPairLabels) {
  const ColumnarLog columns(log_);
  const CompiledQuery compiled =
      CompiledQuery::Compile(query_, schema_, columns);
  const auto classify = [&](std::size_t i, std::size_t j) {
    const PairLabel label = ClassifyPairCompiled(compiled, i, j, 0.10);
    const reference::Label want =
        reference::Classify(query_, log_.schema(), log_.at(i), log_.at(j));
    EXPECT_EQ(static_cast<int>(label), static_cast<int>(want));
    return label;
  };
  EXPECT_EQ(classify(2, 0), PairLabel::kObserved);  // c,a
  EXPECT_EQ(classify(0, 1), PairLabel::kExpected);
  EXPECT_EQ(classify(0, 2), PairLabel::kUnrelated);
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
  auto examples = Sample(query_, 2, 0, rng);
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
  // Every example encodes a full feature vector.
  const ColumnarLog columns(log_);
  const EncodedDataset dataset(columns, schema_, examples.value(),
                               options_.sim_fraction);
  EXPECT_EQ(dataset.rows(), examples->size());
  EXPECT_EQ(dataset.schema().size(), schema_.size());
  // And the draws are the reference's.
  Rng reference_rng(1);
  auto expected = reference::Sample(log_, query_, 2, 0, 2000, reference_rng);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), examples->size());
  for (std::size_t e = 0; e < expected->size(); ++e) {
    EXPECT_EQ((*expected)[e].first, (*examples)[e].first);
    EXPECT_EQ((*expected)[e].second, (*examples)[e].second);
    EXPECT_EQ((*expected)[e].observed, (*examples)[e].observed);
  }
}

TEST_F(PairEnumerationTest, BuildTrainingExamplesValidatesPoi) {
  Rng rng(2);
  EXPECT_FALSE(Sample(query_, 1, 1, rng).ok());
  EXPECT_FALSE(Sample(query_, 99, 0, rng).ok());
  EXPECT_FALSE(reference::Sample(log_, query_, 1, 1, 2000, rng).ok());
  EXPECT_FALSE(reference::Sample(log_, query_, 99, 0, 2000, rng).ok());
}

TEST_F(PairEnumerationTest, BuildTrainingExamplesFailsWithNoRelatedPairs) {
  Query query = GtVsSimQuery("color_diff = (purple,purple)");
  ASSERT_TRUE(query.Bind(schema_).ok());
  Rng rng(3);
  const auto examples = Sample(query, 2, 0, rng);
  EXPECT_FALSE(examples.ok());
  EXPECT_EQ(examples.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(reference::Sample(log_, query, 2, 0, 2000, rng).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PairEnumerationTest, FindPairOfInterestReturnsFirstObserved) {
  auto poi = Find(query_, 0);
  ASSERT_TRUE(poi.ok());
  // Row-major: first observed pair is (c, a) = (2, 0).
  EXPECT_EQ(poi->first, 2u);
  EXPECT_EQ(poi->second, 0u);
  EXPECT_EQ(*poi, reference::FindPairOfInterest(log_, query_).value());
}

TEST_F(PairEnumerationTest, FindPairOfInterestSkips) {
  auto poi = Find(query_, 1);
  ASSERT_TRUE(poi.ok());
  EXPECT_EQ(poi->first, 2u);
  EXPECT_EQ(poi->second, 1u);  // (c, b) is the second observed pair
  EXPECT_EQ(*poi, reference::FindPairOfInterest(log_, query_, 1).value());
  auto exhausted = Find(query_, 100);
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reference::FindPairOfInterest(log_, query_, 100).status().code(),
            StatusCode::kNotFound);
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
        "color_isSame = T AND color_diff = (red,blue)", "x_isSame != F",
        "x_compare = SIM", "duration_isSame = T", "duration_compare = SIM",
        "duration_isSame != F AND color_isSame = T",
        "color_isSame = T AND x_compare = SIM",
        "x_isSame = T AND duration_compare = SIM AND color != blue"}) {
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

      const RelatedPairs pruned_pairs =
          ScanRelatedPairs(columns, compiled, 0.10, pruned).related;
      const RelatedPairs unpruned_pairs =
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
        auto expected = reference::FindPairOfInterest(log_, query, skip);
        ASSERT_EQ(found.ok(), expected.ok()) << despite;
        if (found.ok()) {
          EXPECT_EQ(found->first, expected->first) << despite;
          EXPECT_EQ(found->second, expected->second) << despite;
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
