#include "common/row_stripe.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace perfxplain {
namespace {

TEST(RowStripeTest, ZeroResolvesToDefaultThenHardwareConcurrency) {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(ResolveThreads(0), hardware > 0 ? hardware : 1);
  EXPECT_EQ(ResolveThreads(-3), ResolveThreads(0));
  EXPECT_EQ(ResolveThreads(3), 3);
  SetDefaultEnumerationThreads(2);
  EXPECT_EQ(ResolveThreads(0), 2);
  EXPECT_EQ(ResolveThreads(5), 5);  // an explicit count wins
  SetDefaultEnumerationThreads(0);
  EXPECT_EQ(ResolveThreads(0), hardware > 0 ? hardware : 1);
}

TEST(RowStripeTest, StripesCoverEveryRowOnceInOrder) {
  for (const int threads : {1, 3, 8}) {
    for (const std::size_t rows : {std::size_t{0}, std::size_t{1},
                                   std::size_t{7}, std::size_t{64}}) {
      std::vector<int> visits(rows, 0);
      std::vector<std::size_t> firsts(RowStripeCount(rows, threads), rows);
      ForEachRowStripe(rows, threads,
                       [&](std::size_t stripe, std::size_t begin,
                           std::size_t end) {
                         firsts[stripe] = begin;
                         for (std::size_t i = begin; i < end; ++i) {
                           ++visits[i];
                         }
                       });
      for (std::size_t i = 0; i < rows; ++i) {
        EXPECT_EQ(visits[i], 1) << "threads " << threads << " row " << i;
      }
      for (std::size_t s = 1; s < firsts.size(); ++s) {
        EXPECT_LE(firsts[s - 1], firsts[s]) << "threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace perfxplain
