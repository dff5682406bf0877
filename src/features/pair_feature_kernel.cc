#include "features/pair_feature_kernel.h"

#include "common/logging.h"

namespace perfxplain {

namespace kernel {

PackedIsSameCodes PackIsSameCodes(const RawColumnTable& table, std::size_t i,
                                  std::size_t j, double sim_fraction) {
  PackedIsSameCodes packed(table.size());
  PackIsSameCodesRaw(table, i, j, sim_fraction, packed.mutable_words());
  return packed;
}

void PackIsSameCodesInto(const RawColumnTable& table, std::size_t i,
                         std::size_t j, double sim_fraction,
                         PackedIsSameCodes* packed) {
  PX_CHECK_EQ(packed->features(), table.size());
  PackIsSameCodesRaw(table, i, j, sim_fraction, packed->mutable_words());
}

void PackIsSameCodesRaw(const RawColumnTable& table, std::size_t i,
                        std::size_t j, double sim_fraction,
                        std::uint64_t* words) {
  const std::size_t k = table.size();
  const std::size_t word_count =
      (k + kPackedFeaturesPerWord - 1) / kPackedFeaturesPerWord;
  std::size_t f = 0;
  for (std::size_t w = 0; w < word_count; ++w) {
    std::uint64_t word = 0;
    const std::size_t word_end = std::min(k, (w + 1) * kPackedFeaturesPerWord);
    std::size_t shift = 0;
    for (; f < word_end; ++f, shift += 2) {
      word |= PackedField(table.IsSame(f, i, j, sim_fraction)) << shift;
    }
    words[w] = word;
  }
}

std::size_t CountPackedDisagreements(const PackedIsSameCodes& a,
                                     const PackedIsSameCodes& b) {
  PX_CHECK_EQ(a.features(), b.features());
  std::size_t disagree = 0;
  for (std::size_t w = 0; w < a.word_count(); ++w) {
    disagree +=
        static_cast<std::size_t>(PopCount(PackedDisagreeMask(a.word(w),
                                                             b.word(w))));
  }
  return disagree;
}

void AppendMaskedFeatures(const std::uint64_t* diff_masks,
                          std::size_t word_count,
                          std::vector<std::size_t>& out) {
  for (std::size_t w = 0; w < word_count; ++w) {
    const std::size_t base = w * kPackedFeaturesPerWord;
    for (std::uint64_t mask = diff_masks[w]; mask != 0; mask &= mask - 1) {
      out.push_back(base +
                    static_cast<std::size_t>(CountTrailingZeros(mask)) / 2);
    }
  }
}

}  // namespace kernel

Value DecodeIsSame(std::int8_t code) {
  if (code == kernel::kMissingCode) return Value::Missing();
  return pair_values::BooleanValue(code == kernel::kTrueCode);
}

Value DecodeCompare(std::int8_t code) {
  switch (code) {
    case kernel::kLtCode:
      return pair_values::LtValue();
    case kernel::kSimCode:
      return pair_values::SimValue();
    case kernel::kGtCode:
      return pair_values::GtValue();
    default:
      return Value::Missing();
  }
}

Value DecodeDiff(std::int64_t packed, const StringInterner& interner) {
  if (packed == kernel::kMissingDiff) return Value::Missing();
  return Value::Nominal("(" + interner.StringOf(kernel::DiffLeft(packed)) +
                        "," + interner.StringOf(kernel::DiffRight(packed)) +
                        ")");
}

Value DecodeBaseNominal(std::int32_t code, const StringInterner& interner) {
  if (code == StringInterner::kNoCode) return Value::Missing();
  return Value::Nominal(interner.StringOf(code));
}

}  // namespace perfxplain
