#include "ml/sampler.h"

#include <gtest/gtest.h>

#include "core/pair_enumeration.h"

namespace perfxplain {
namespace {

/// A related-pair scan of `observed` observed then `expected` expected
/// pairs, record indexes ascending.
RelatedPairScan MakeScan(std::size_t observed, std::size_t expected) {
  RelatedPairScan scan;
  scan.counts = {observed, expected};
  for (std::size_t i = 0; i < observed + expected; ++i) {
    scan.related.push_back({i, i + 1, i < observed});
  }
  return scan;
}

/// The §4.3 balanced draws over MakeScan(observed, expected), without the
/// pair of interest the draws always put first (it is related to no scan
/// pair here). Empty when no pair is related, which the sampler reports
/// as FailedPrecondition.
std::vector<PairRef> BalancedSample(const RelatedPairScan& scan,
                                    const SamplerOptions& options, Rng& rng) {
  const std::size_t rows = scan.related.size() + 3;
  auto sampled =
      ReplaySampleDraws(scan, rows, rows - 2, rows - 1, options, rng);
  if (!sampled.ok()) {
    EXPECT_EQ(sampled.status().code(), StatusCode::kFailedPrecondition);
    return {};
  }
  EXPECT_EQ(sampled->front().first, rows - 2);
  return std::vector<PairRef>(sampled->begin() + 1, sampled->end());
}

std::pair<std::size_t, std::size_t> CountLabels(
    const std::vector<PairRef>& examples) {
  std::size_t observed = 0;
  for (const auto& example : examples) {
    if (example.observed) ++observed;
  }
  return {observed, examples.size() - observed};
}

TEST(SamplerTest, KeepsSmallBalancedSetWhole) {
  SamplerOptions options;
  options.sample_size = 2000;
  Rng rng(1);
  const auto sample = BalancedSample(MakeScan(100, 100), options, rng);
  EXPECT_EQ(sample.size(), 200u);
}

TEST(SamplerTest, TargetsSampleSizeOnLargeSets) {
  SamplerOptions options;
  options.sample_size = 2000;
  Rng rng(2);
  const auto sample =
      BalancedSample(MakeScan(50000, 50000), options, rng);
  // Expect roughly 2000 (binomial, sd ~ 44).
  EXPECT_GT(sample.size(), 1700u);
  EXPECT_LT(sample.size(), 2300u);
}

TEST(SamplerTest, BalancesSkewedClasses) {
  // 99% observed; the sample should come out near 50/50 (§4.3).
  SamplerOptions options;
  options.sample_size = 2000;
  Rng rng(3);
  const auto sample =
      BalancedSample(MakeScan(99000, 1000), options, rng);
  const auto [observed, expected] = CountLabels(sample);
  EXPECT_NEAR(static_cast<double>(observed), 1000.0, 150.0);
  EXPECT_EQ(expected, 1000u);  // p = 2000/(2*1000) = 1 -> all kept
}

TEST(SamplerTest, MinorityClassKeptWholeWhenTiny) {
  SamplerOptions options;
  options.sample_size = 2000;
  Rng rng(4);
  const auto sample = BalancedSample(MakeScan(50000, 20), options, rng);
  const auto [observed, expected] = CountLabels(sample);
  EXPECT_EQ(expected, 20u);
  EXPECT_NEAR(static_cast<double>(observed), 1000.0, 150.0);
}

TEST(SamplerTest, SingleClassStillSampled) {
  SamplerOptions options;
  options.sample_size = 100;
  Rng rng(5);
  const auto sample = BalancedSample(MakeScan(10000, 0), options, rng);
  const auto [observed, expected] = CountLabels(sample);
  EXPECT_EQ(expected, 0u);
  EXPECT_NEAR(static_cast<double>(observed), 50.0, 35.0);
}

TEST(SamplerTest, EmptyInputYieldsEmptySample) {
  SamplerOptions options;
  Rng rng(6);
  EXPECT_TRUE(BalancedSample(MakeScan(0, 0), options, rng).empty());
}

TEST(SamplerTest, PreservesOrder) {
  SamplerOptions options;
  options.sample_size = 1000000;  // keep everything
  Rng rng(7);
  const auto sample = BalancedSample(MakeScan(50, 50), options, rng);
  ASSERT_EQ(sample.size(), 100u);
  for (std::size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1].first, sample[i].first);
  }
}

TEST(SamplerTest, DeterministicGivenSeed) {
  SamplerOptions options;
  options.sample_size = 500;
  Rng rng1(8);
  Rng rng2(8);
  const auto s1 = BalancedSample(MakeScan(5000, 5000), options, rng1);
  const auto s2 = BalancedSample(MakeScan(5000, 5000), options, rng2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].first, s2[i].first);
  }
}

/// Property sweep over imbalance ratios: the expected-class share of the
/// sample stays near 1/2 whenever both classes are large enough.
class SamplerBalanceTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SamplerBalanceTest, SampleIsRoughlyBalanced) {
  const auto [observed, expected] = GetParam();
  SamplerOptions options;
  options.sample_size = 2000;
  Rng rng(observed * 31 + expected);
  const auto sample =
      BalancedSample(MakeScan(observed, expected), options, rng);
  const auto [got_observed, got_expected] = CountLabels(sample);
  const double share = static_cast<double>(got_observed) /
                       static_cast<double>(got_observed + got_expected);
  EXPECT_NEAR(share, 0.5, 0.08)
      << "observed=" << observed << " expected=" << expected;
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, SamplerBalanceTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{2000, 2000},
                      std::pair<std::size_t, std::size_t>{20000, 2000},
                      std::pair<std::size_t, std::size_t>{2000, 20000},
                      std::pair<std::size_t, std::size_t>{100000, 5000},
                      std::pair<std::size_t, std::size_t>{5000, 100000}));

std::vector<PairRef> PairExamples(
    std::initializer_list<std::pair<std::size_t, std::size_t>> pairs) {
  std::vector<PairRef> examples;
  for (const auto& [first, second] : pairs) {
    examples.push_back({first, second, true});
  }
  return examples;
}

TEST(DiversityTest, CapsPerRecordParticipation) {
  // Record 0 participates in four pairs; with a cap of 2 only the first
  // two survive, and the (1,2) pair is unaffected.
  auto examples =
      PairExamples({{0, 1}, {0, 2}, {0, 3}, {3, 0}, {1, 2}});
  const auto kept = EnforceRecordDiversity(std::move(examples), 2,
                                           /*keep_first=*/false);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].second, 1u);
  EXPECT_EQ(kept[1].second, 2u);
  EXPECT_EQ(kept[2].first, 1u);
  EXPECT_EQ(kept[2].second, 2u);
}

TEST(DiversityTest, ZeroCapDisablesFiltering) {
  auto examples = PairExamples({{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(EnforceRecordDiversity(std::move(examples), 0, false).size(),
            3u);
}

TEST(DiversityTest, PairOfInterestIsExemptWhenKeepFirst) {
  // The first example survives even with cap 1, and does not consume the
  // budget of its records.
  auto examples = PairExamples({{0, 1}, {0, 2}, {1, 3}});
  const auto kept = EnforceRecordDiversity(std::move(examples), 1,
                                           /*keep_first=*/true);
  ASSERT_EQ(kept.size(), 3u);
}

TEST(DiversityTest, CapOneKeepsDisjointPairsOnly) {
  auto examples = PairExamples({{0, 1}, {2, 3}, {1, 2}, {4, 5}});
  const auto kept =
      EnforceRecordDiversity(std::move(examples), 1, /*keep_first=*/false);
  ASSERT_EQ(kept.size(), 3u);  // (1,2) dropped: both records already used
  EXPECT_EQ(kept[2].first, 4u);
}

}  // namespace
}  // namespace perfxplain
