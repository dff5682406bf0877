// PairCodeStore unit tests: the plane's packed codes must be word-for-
// word what the streaming kernels pack per pair — including missing
// values and NaN — the memory budget must gate filling deterministically,
// and planes must be keyed by similarity fraction.

#include "features/pair_code_store.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "features/pair_feature_kernel.h"
#include "log/execution_log.h"

namespace perfxplain {
namespace {

/// A log exercising the awkward encodings: missing cells, exact zeros,
/// NaN (data, not missingness) and near-similar numerics.
ExecutionLog AwkwardLog(std::size_t n, std::uint64_t seed) {
  Schema schema;
  PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("y", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const char* colors[] = {"red", "blue", "green"};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.push_back(rng.Bernoulli(0.2) ? Value::Missing()
                                        : Value::Number(rng.UniformInt(0, 3)));
    values.push_back(rng.Bernoulli(0.2)
                         ? Value::Missing()
                         : Value::Nominal(colors[rng.UniformInt(0, 2)]));
    double y = rng.Uniform(0.0, 10.0);
    if (rng.Bernoulli(0.1)) y = 0.0;
    if (rng.Bernoulli(0.1)) y = std::nan("");
    values.push_back(Value::Number(y));
    PX_CHECK(
        log.Add(ExecutionRecord(StrFormat("r%03zu", i), std::move(values)))
            .ok());
  }
  return log;
}

TEST(PairCodeStoreTest, ResidentWordsMatchStreamingPack) {
  const ExecutionLog log = AwkwardLog(17, 7);
  const ColumnarLog columns(log);
  const kernel::RawColumnTable table(columns);
  const PairCodeStore store(&columns);
  for (double sim : {0.10, 0.50}) {
    TilePool* resident = store.Acquire(sim, store.bytes_per_plane());
    ASSERT_NE(resident, nullptr);
    EXPECT_EQ(resident->rows(), columns.rows());
    EXPECT_EQ(resident->frame_count(), columns.rows());
    EXPECT_EQ(resident->sim_fraction(), sim);
    EXPECT_TRUE(resident->full());
    for (std::size_t i = 0; i < columns.rows(); ++i) {
      for (std::size_t j = 0; j < columns.rows(); ++j) {
        const kernel::PackedIsSameCodes packed =
            kernel::PackIsSameCodes(table, i, j, sim);
        ASSERT_EQ(packed.word_count(), resident->word_count());
        const std::uint64_t* words =
            resident->Fetch(i) + j * resident->word_count();
        for (std::size_t w = 0; w < packed.word_count(); ++w) {
          ASSERT_EQ(words[w], packed.word(w))
              << "pair (" << i << "," << j << ") word " << w << " sim "
              << sim;
        }
      }
    }
  }
  EXPECT_EQ(store.build_count(), 2u);  // one plane per sim fraction
  EXPECT_EQ(store.resident_bytes(), 2 * store.bytes_per_plane());
}

TEST(PairCodeStoreTest, BytesNeededIsTheDocumentedFormula) {
  // n^2 * ceil(k/32) * 8 bytes.
  EXPECT_EQ(PairCodeStore::BytesNeeded(10, 3), 10u * 10u * 1u * 8u);
  EXPECT_EQ(PairCodeStore::BytesNeeded(10, 32), 10u * 10u * 1u * 8u);
  EXPECT_EQ(PairCodeStore::BytesNeeded(10, 33), 10u * 10u * 2u * 8u);
  EXPECT_EQ(PairCodeStore::BytesNeeded(0, 5), 0u);
}

TEST(PairCodeStoreTest, BudgetGatesBuildingDeterministically) {
  const ExecutionLog log = AwkwardLog(9, 3);
  const ColumnarLog columns(log);
  const PairCodeStore store(&columns);
  const std::size_t needed = store.bytes_per_plane();
  ASSERT_GT(needed, 0u);

  // Under budget: no plane is built, ever.
  EXPECT_EQ(store.Acquire(0.10, 0), nullptr);
  EXPECT_EQ(store.Acquire(0.10, needed - 1), nullptr);
  EXPECT_FALSE(store.warm(0.10));
  EXPECT_EQ(store.build_count(), 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);

  // At budget: built once, then cached.
  const TilePool* resident = store.Acquire(0.10, needed);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->bytes(), needed);
  EXPECT_TRUE(store.warm(0.10));
  EXPECT_EQ(store.Acquire(0.10, needed), resident);
  EXPECT_EQ(store.build_count(), 1u);

  // A caller whose budget is tighter still streams — even though the
  // plane exists — so a given engine's path never depends on who built
  // what first.
  EXPECT_EQ(store.Acquire(0.10, needed - 1), nullptr);
}

TEST(PairCodeStoreTest, PeekNeverBuilds) {
  const ExecutionLog log = AwkwardLog(5, 11);
  const ColumnarLog columns(log);
  const PairCodeStore store(&columns);
  EXPECT_EQ(store.Peek(0.10), nullptr);
  EXPECT_EQ(store.build_count(), 0u);
  ASSERT_NE(store.Acquire(0.10, store.bytes_per_plane()), nullptr);
  EXPECT_NE(store.Peek(0.10), nullptr);
  EXPECT_EQ(store.Peek(0.25), nullptr);  // other fractions stay cold
  EXPECT_EQ(store.build_count(), 1u);
}

}  // namespace
}  // namespace perfxplain
