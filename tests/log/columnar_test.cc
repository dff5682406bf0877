#include "log/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

TEST(StringInternerTest, PreInternsCategoricalLevels) {
  StringInterner interner;
  EXPECT_EQ(interner.Lookup("T"), interner.true_code());
  EXPECT_EQ(interner.Lookup("F"), interner.false_code());
  EXPECT_EQ(interner.Lookup("LT"), interner.lt_code());
  EXPECT_EQ(interner.Lookup("SIM"), interner.sim_code());
  EXPECT_EQ(interner.Lookup("GT"), interner.gt_code());
  EXPECT_EQ(interner.size(), 5u);
}

TEST(StringInternerTest, InternIsIdempotentAndDense) {
  StringInterner interner;
  const std::int32_t a = interner.Intern("alpha");
  const std::int32_t b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.Lookup("alpha"), a);
  EXPECT_EQ(interner.StringOf(a), "alpha");
  EXPECT_EQ(interner.StringOf(b), "beta");
  EXPECT_EQ(interner.Lookup("gamma"), StringInterner::kNoCode);
}

TEST(StringInternerTest, CodesSurviveRehashing) {
  StringInterner interner;
  std::vector<std::int32_t> codes;
  for (int i = 0; i < 1000; ++i) {
    codes.push_back(interner.Intern("key-" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.Lookup("key-" + std::to_string(i)), codes[i]);
    EXPECT_EQ(interner.StringOf(codes[i]), "key-" + std::to_string(i));
  }
}

TEST(PresenceBitmapTest, SetAndTestAcrossWordBoundaries) {
  PresenceBitmap bitmap(130);
  for (std::size_t r : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_FALSE(bitmap.Test(r));
  }
  bitmap.Set(0);
  bitmap.Set(63);
  bitmap.Set(64);
  bitmap.Set(129);
  EXPECT_TRUE(bitmap.Test(0));
  EXPECT_FALSE(bitmap.Test(1));
  EXPECT_TRUE(bitmap.Test(63));
  EXPECT_TRUE(bitmap.Test(64));
  EXPECT_FALSE(bitmap.Test(65));
  EXPECT_TRUE(bitmap.Test(129));
}

ExecutionLog RandomLog(std::uint64_t seed, std::size_t n) {
  Schema schema;
  PX_CHECK(schema.Add("a", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("b", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("host", ValueKind::kNominal).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const char* colors[] = {"red", "blue", "green,ish"};
  const char* hosts[] = {"h1", "h2"};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.push_back(rng.Bernoulli(0.2)
                         ? Value::Missing()
                         : Value::Number(rng.Uniform(-5.0, 5.0)));
    values.push_back(rng.Bernoulli(0.2)
                         ? Value::Missing()
                         : Value::Nominal(colors[rng.UniformInt(0, 2)]));
    double b = rng.Uniform(0.0, 10.0);
    if (rng.Bernoulli(0.1)) b = 0.0;
    if (rng.Bernoulli(0.05)) b = std::nan("");
    values.push_back(Value::Number(b));
    values.push_back(Value::Nominal(hosts[rng.UniformInt(0, 1)]));
    PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%03zu", i),
                                     std::move(values)))
                 .ok());
  }
  return log;
}

TEST(ColumnarLogTest, RoundTripsEveryCell) {
  const ExecutionLog log = RandomLog(7, 60);
  const ColumnarLog columns(log);
  ASSERT_EQ(columns.rows(), log.size());
  for (std::size_t row = 0; row < log.size(); ++row) {
    for (std::size_t col = 0; col < log.schema().size(); ++col) {
      const Value& expected = log.ValueAt(row, col);
      const Value actual = columns.ValueAt(row, col);
      if (expected.is_numeric() && std::isnan(expected.number())) {
        // NaN round-trips as NaN (Value equality would reject it).
        ASSERT_TRUE(actual.is_numeric());
        EXPECT_TRUE(std::isnan(actual.number()));
      } else {
        EXPECT_EQ(actual, expected) << "row " << row << " col " << col;
      }
    }
  }
}

TEST(ColumnarLogTest, SharesOneDictionaryAcrossColumns) {
  ExecutionLog log(([] {
    Schema schema;
    PX_CHECK(schema.Add("c1", ValueKind::kNominal).ok());
    PX_CHECK(schema.Add("c2", ValueKind::kNominal).ok());
    return schema;
  })());
  PX_CHECK(log.Add(ExecutionRecord(
                       "r0", {Value::Nominal("x"), Value::Nominal("x")}))
               .ok());
  const ColumnarLog columns(log);
  EXPECT_EQ(columns.nominal_column(0).codes[0],
            columns.nominal_column(1).codes[0]);
}

TEST(ColumnarLogTest, MissingNominalUsesNoCode) {
  ExecutionLog log(testing::TinySchema());
  PX_CHECK(log.Add(ExecutionRecord("r0", {Value::Number(1), Value::Missing(),
                                          Value::Missing()}))
               .ok());
  const ColumnarLog columns(log);
  EXPECT_EQ(columns.nominal_column(1).codes[0], StringInterner::kNoCode);
  EXPECT_FALSE(columns.numeric_column(2).present.Test(0));
  EXPECT_TRUE(columns.numeric_column(0).present.Test(0));
}

/// Numeric cells full of ties, -0.0 beside +0.0, missing cells and NaN.
ExecutionLog TiedNumericLog(std::uint64_t seed, std::size_t n) {
  Schema schema;
  PX_CHECK(schema.Add("a", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("b", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const double pool[] = {-3.5, -1, -0.0, 0.0, 0.5, 2, 1e9};
  const auto cell = [&rng, &pool]() {
    if (rng.Bernoulli(0.15)) return Value::Missing();
    if (rng.Bernoulli(0.08)) return Value::Number(std::nan(""));
    return Value::Number(pool[rng.UniformInt(0, 6)]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.push_back(cell());
    values.push_back(Value::Nominal(rng.Bernoulli(0.5) ? "x" : "y"));
    values.push_back(cell());
    PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%03zu", i),
                                     std::move(values)))
                 .ok());
  }
  return log;
}

ExecutionLog Prefix(const ExecutionLog& log, std::size_t rows) {
  ExecutionLog prefix(log.schema());
  for (std::size_t row = 0; row < rows; ++row) {
    PX_CHECK(prefix.Add(log.at(row)).ok());
  }
  return prefix;
}

/// Records `rows`.. of `log`, the records an extension appends.
std::vector<ExecutionRecord> Suffix(const ExecutionLog& log,
                                    std::size_t rows) {
  return std::vector<ExecutionRecord>(log.records().begin() + rows,
                                      log.records().end());
}

/// Every edge of the cell kinds — signed zeros, NaNs, infinities,
/// subnormals, the nominals "" and "?" and strings holding a line break,
/// missing cells — under ids in no sorted order.
ExecutionLog EdgeValueLog() {
  using Limits = std::numeric_limits<double>;
  const std::vector<Value> numbers = {
      Value::Number(0.0),
      Value::Number(-0.0),
      Value::Number(Limits::quiet_NaN()),
      Value::Number(-Limits::quiet_NaN()),
      Value::Number(Limits::infinity()),
      Value::Number(-Limits::infinity()),
      Value::Number(Limits::denorm_min()),
      Value::Number(-Limits::denorm_min()),
      Value::Number(std::nextafter(Limits::min(), 0.0)),
      Value::Missing(),
      Value::Number(0.1)};
  const std::vector<Value> nominals = {
      Value::Nominal(""),           Value::Nominal("?"),
      Value::Nominal("line\nbreak"), Value::Missing(),
      Value::Nominal("\n"),         Value::Nominal("T")};
  const std::vector<std::string> ids = {"r9", "a",   "r10", "zz",  "b?", "m",
                                        "r1", "r01", "c\nd", "0",  "?"};
  Schema schema;
  PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("name", ValueKind::kNominal).ok());
  PX_CHECK(schema.Add("y", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  for (std::size_t row = 0; row < ids.size(); ++row) {
    PX_CHECK(log.Add(ExecutionRecord(
                         ids[row],
                         {numbers[row % numbers.size()],
                          nominals[row % nominals.size()],
                          numbers[(row * 7 + 3) % numbers.size()]}))
                 .ok());
  }
  return log;
}

/// `columns` decodes to exactly `log`: the same ids, and every cell the
/// same kind and bytes (doubles compared by representation).
void ExpectDecodesTo(const ColumnarLog& columns, const ExecutionLog& log,
                     const std::string& context) {
  ASSERT_EQ(columns.rows(), log.size()) << context;
  const ExecutionLog decoded = columns.ToLog();
  ASSERT_EQ(decoded.size(), log.size()) << context;
  for (std::size_t row = 0; row < log.size(); ++row) {
    const ExecutionRecord record = columns.Record(row);
    EXPECT_EQ(record.id, log.at(row).id) << context;
    EXPECT_EQ(decoded.at(row).id, log.at(row).id) << context;
    for (std::size_t col = 0; col < log.schema().size(); ++col) {
      const std::string where =
          StrFormat("%s row %zu col %zu", context.c_str(), row, col);
      const Value& expected = log.at(row).values[col];
      for (const Value* actual :
           {&record.values[col], &decoded.at(row).values[col]}) {
        ASSERT_EQ(actual->kind(), expected.kind()) << where;
        if (expected.is_numeric()) {
          const double a = actual->number();
          const double e = expected.number();
          EXPECT_EQ(std::memcmp(&a, &e, sizeof e), 0) << where;
        } else if (expected.is_nominal()) {
          EXPECT_EQ(actual->nominal(), expected.nominal()) << where;
        }
      }
    }
  }
}

TEST(ColumnarLogDecodeTest, ColdAndExtendedColumnsDecodeToTheLog) {
  const ExecutionLog log = EdgeValueLog();
  ExpectDecodesTo(ColumnarLog(log), log, "cold");
  for (std::size_t base_rows : {std::size_t{0}, std::size_t{1},
                                log.size() / 2, log.size()}) {
    const ColumnarLog extended(ColumnarLog(Prefix(log, base_rows)),
                               Suffix(log, base_rows));
    ExpectDecodesTo(extended, log, StrFormat("base %zu", base_rows));
  }
}

TEST(ColumnarLogDecodeTest, FindReturnsEveryRowAndNotFoundOtherwise) {
  const ExecutionLog log = EdgeValueLog();
  const ColumnarLog cold(log);
  const ColumnarLog extended(ColumnarLog(Prefix(log, 4)), Suffix(log, 4));
  for (const ColumnarLog* columns : {&cold, &extended}) {
    for (std::size_t row = 0; row < log.size(); ++row) {
      auto found = columns->Find(log.at(row).id);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      EXPECT_EQ(*found, row);
    }
    auto absent = columns->Find("r2");
    ASSERT_FALSE(absent.ok());
    EXPECT_EQ(absent.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(absent.status().message(), log.Find("r2").status().message());
  }
}

TEST(ColumnarLogDecodeTest, AdHocRecordsMayRepeatAnId) {
  const ExecutionLog log = EdgeValueLog();
  const ColumnarLog pair(log.schema(), {log.at(3), log.at(3)});
  ASSERT_EQ(pair.rows(), 2u);
  EXPECT_EQ(pair.Record(1).id, log.at(3).id);
  EXPECT_EQ(pair.Find(log.at(3).id).value(), 0u);
}

/// ValueOrder(col) lists exactly the present, non-NaN rows of the column,
/// by ascending value and, among equal values, ascending row.
void ExpectValueOrder(const ColumnarLog& columns, std::size_t col,
                      const std::string& context) {
  const NumericColumn& column = columns.numeric_column(col);
  const std::vector<std::uint32_t>& order = columns.ValueOrder(col);
  std::vector<std::uint32_t> eligible;
  for (std::size_t row = 0; row < columns.rows(); ++row) {
    if (column.present.Test(row) && !std::isnan(column.values[row])) {
      eligible.push_back(static_cast<std::uint32_t>(row));
    }
  }
  std::vector<std::uint32_t> listed = order;
  std::sort(listed.begin(), listed.end());
  EXPECT_EQ(listed, eligible) << context;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const double prev = column.values[order[k - 1]];
    const double next = column.values[order[k]];
    EXPECT_TRUE(prev < next || (prev == next && order[k - 1] < order[k]))
        << context << " position " << k;
  }
}

TEST(ColumnarLogOrderTest, AscendingOverPresentNonNanCells) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ExecutionLog log = TiedNumericLog(seed, 90);
    const ColumnarLog columns(log);
    for (std::size_t col : {std::size_t{0}, std::size_t{2}}) {
      ExpectValueOrder(columns, col,
                       StrFormat("seed %d col %zu", static_cast<int>(seed),
                                 col));
    }
  }
  // The ad-hoc records constructor orders its rows too.
  const ExecutionLog log = TiedNumericLog(4, 3);
  const ColumnarLog records(log.schema(), {log.at(2), log.at(0), log.at(1)});
  ExpectValueOrder(records, 0, "records col 0");
  ExpectValueOrder(records, 2, "records col 2");
}

TEST(ColumnarLogOrderTest, IncrementalOrderMatchesCold) {
  const ExecutionLog full = TiedNumericLog(11, 200);
  const ColumnarLog cold(full);
  for (std::size_t delta_percent : {5u, 25u, 50u}) {
    const std::size_t base_rows = full.size() * (100 - delta_percent) / 100;
    const ColumnarLog base(Prefix(full, base_rows));
    for (std::size_t col : {std::size_t{0}, std::size_t{2}}) {
      ExpectValueOrder(base, col, "base");
    }
    const ColumnarLog extended(base, Suffix(full, base_rows));
    for (std::size_t col : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_EQ(extended.ValueOrder(col), cold.ValueOrder(col))
          << delta_percent << "% delta, col " << col;
    }
  }
}

/// Column "wide": values spread over many binades, a tight cluster, the
/// extremes (infinities, largest finite, subnormals, both zeros), NaN and
/// missing cells, in random row order. Column "rising": ascending with gaps,
/// so the already-sorted shortcut runs.
ExecutionLog SpreadNumericLog(std::uint64_t seed, std::size_t n) {
  Schema schema;
  PX_CHECK(schema.Add("wide", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("rising", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const double extremes[] = {-HUGE_VAL,
                             HUGE_VAL,
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::denorm_min(),
                             -0.0,
                             0.0};
  for (std::size_t i = 0; i < n; ++i) {
    Value wide = Value::Missing();
    switch (rng.UniformInt(0, 5)) {
      case 0:
        wide = Value::Number(rng.Uniform(-1e6, 1e6));
        break;
      case 1:
        wide = Value::Number(std::ldexp(
            rng.Uniform(1, 2), static_cast<int>(rng.UniformInt(-40, 40))));
        break;
      case 2:
        wide = Value::Number(1e9 + 1e-6 * static_cast<double>(
                                             rng.UniformInt(0, 20)));
        break;
      case 3:
        wide = Value::Number(extremes[rng.UniformInt(0, 7)]);
        break;
      case 4:
        wide = Value::Number(std::nan(""));
        break;
      default:
        break;
    }
    Value rising = rng.Bernoulli(0.1)
                       ? Value::Missing()
                       : Value::Number(static_cast<double>(i / 3));
    std::vector<Value> values;
    values.push_back(std::move(wide));
    values.push_back(std::move(rising));
    PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%04zu", i),
                                     std::move(values)))
                 .ok());
  }
  return log;
}

TEST(ColumnarLogOrderTest, AscendingOnSpreadAndClusteredValues) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const ExecutionLog full = SpreadNumericLog(seed, 1500);
    const ColumnarLog cold(full);
    const ColumnarLog extended(ColumnarLog(Prefix(full, 1100)),
                               Suffix(full, 1100));
    for (std::size_t col : {std::size_t{0}, std::size_t{1}}) {
      const std::string context =
          StrFormat("seed %d col %zu", static_cast<int>(seed), col);
      ExpectValueOrder(cold, col, context);
      EXPECT_EQ(extended.ValueOrder(col), cold.ValueOrder(col)) << context;
    }
  }
}

}  // namespace
}  // namespace perfxplain
