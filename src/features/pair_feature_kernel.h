#ifndef PERFXPLAIN_FEATURES_PAIR_FEATURE_KERNEL_H_
#define PERFXPLAIN_FEATURES_PAIR_FEATURE_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/value.h"
#include "features/pair_schema.h"
#include "log/columnar.h"

namespace perfxplain {

/// Tunables for pair-feature computation.
struct PairFeatureOptions {
  /// Two numeric values are "similar" (compare = SIM, isSame = T) when they
  /// are within this fraction of one another (footnote 1 of the paper uses
  /// 10%).
  double sim_fraction = 0.10;
};

/// Branchless-ish scalar kernels computing the Table 1 pair features as
/// small integer codes directly from columnar data:
///  - f_isSame: "T"/"F". Nominal raw features compare exactly; numeric raw
///    features use the similarity tolerance (continuous metrics are never
///    bitwise equal, so exact equality would make every isSame feature
///    trivially "F"). Missing raw values yield a missing pair value.
///  - f_compare: "LT"/"SIM"/"GT" comparing a.f against b.f; missing for
///    nominal raw features or missing inputs.
///  - f_diff: "(a.f,b.f)"; missing for numeric raw features.
///  - f (base): a.f when a.f = b.f exactly, otherwise missing.
/// The kernels never materialize a Value and never allocate.
/// Everything in this namespace is a pure function of its arguments (or an
/// immutable table of column pointers), so kernels are safe to call from
/// any number of row-stripe workers concurrently; thread-count invariance
/// of the scans built on them follows from merging per-stripe integer
/// tallies in stripe order.
///
/// Code conventions:
///  - kMissingCode (-1) encodes a missing pair-feature value;
///  - isSame codes: 0 = "F", 1 = "T";
///  - compare codes: 0 = "LT", 1 = "SIM", 2 = "GT";
///  - diff values are packed (left, right) interner-code pairs;
///  - base features keep the raw column representation (double or interner
///    code).
namespace kernel {

inline constexpr std::int8_t kMissingCode = -1;
inline constexpr std::int8_t kFalseCode = 0;
inline constexpr std::int8_t kTrueCode = 1;
inline constexpr std::int8_t kLtCode = 0;
inline constexpr std::int8_t kSimCode = 1;
inline constexpr std::int8_t kGtCode = 2;
inline constexpr std::int64_t kMissingDiff = -1;

/// Mirror of Value::WithinFraction on raw doubles (footnote 1 similarity).
inline bool WithinFraction(double x, double y, double fraction) {
  if (x == y) return true;
  const double scale = std::max(std::abs(x), std::abs(y));
  return std::abs(x - y) <= fraction * scale;
}

/// f_isSame for a numeric raw feature: T iff within the similarity
/// tolerance; missing when either input is missing.
inline std::int8_t IsSameNumeric(bool x_present, double x, bool y_present,
                                 double y, double sim_fraction) {
  if (!x_present || !y_present) return kMissingCode;
  return WithinFraction(x, y, sim_fraction) ? kTrueCode : kFalseCode;
}

/// f_isSame for a nominal raw feature: exact (dictionary-code) equality.
inline std::int8_t IsSameNominal(std::int32_t x_code, std::int32_t y_code) {
  if (x_code < 0 || y_code < 0) return kMissingCode;
  return x_code == y_code ? kTrueCode : kFalseCode;
}

/// f_compare (numeric raw features only): LT/SIM/GT of x against y.
inline std::int8_t CompareNumeric(bool x_present, double x, bool y_present,
                                  double y, double sim_fraction) {
  if (!x_present || !y_present) return kMissingCode;
  if (WithinFraction(x, y, sim_fraction)) return kSimCode;
  return x < y ? kLtCode : kGtCode;
}

/// f_diff (nominal raw features only) as a packed (left, right) code pair.
/// Equal packed values <=> equal "(left,right)" diff strings.
inline std::int64_t DiffPacked(std::int32_t x_code, std::int32_t y_code) {
  if (x_code < 0 || y_code < 0) return kMissingDiff;
  return (static_cast<std::int64_t>(x_code) << 32) |
         static_cast<std::uint32_t>(y_code);
}

inline std::int32_t DiffLeft(std::int64_t packed) {
  return static_cast<std::int32_t>(packed >> 32);
}
inline std::int32_t DiffRight(std::int64_t packed) {
  return static_cast<std::int32_t>(packed & 0xffffffff);
}

/// Base feature of a numeric raw feature: present (with value x) only when
/// both sides are present and exactly equal. NaN never equals itself, so a
/// NaN input yields a missing base feature.
struct BaseNumericResult {
  bool present;
  double value;
};
inline BaseNumericResult BaseNumeric(bool x_present, double x, bool y_present,
                                     double y) {
  return {x_present && y_present && x == y, x};
}

/// Base feature of a nominal raw feature: the shared code, or kNoCode.
inline std::int32_t BaseNominal(std::int32_t x_code, std::int32_t y_code) {
  return (x_code >= 0 && x_code == y_code) ? x_code : StringInterner::kNoCode;
}

/// isSame kernel code of raw feature `col` for the ordered row pair
/// (i, j), dispatching on the column type. The allocation-free agreement
/// test shared by the columnar SimButDiff and RuleOfThumb baselines; code
/// equality is exactly Value equality of the corresponding isSame pair
/// features (missing compares equal only to missing).
inline std::int8_t IsSameCode(const ColumnarLog& columns, std::size_t col,
                              std::size_t i, std::size_t j,
                              double sim_fraction) {
  if (columns.is_numeric(col)) {
    const NumericColumn& c = columns.numeric_column(col);
    return IsSameNumeric(c.present.Test(i), c.values[i], c.present.Test(j),
                         c.values[j], sim_fraction);
  }
  const NominalColumn& c = columns.nominal_column(col);
  return IsSameNominal(c.codes[i], c.codes[j]);
}

/// Per-raw-feature column accessors resolved once per log, so O(n²k)
/// inner loops (SimButDiff similarity, RReliefF distances) skip the
/// per-call schema dispatch and checked column lookups of ColumnarLog.
class RawColumnTable {
 public:
  explicit RawColumnTable(const ColumnarLog& columns) {
    const std::size_t k = columns.schema().size();
    entries_.reserve(k);
    for (std::size_t col = 0; col < k; ++col) {
      Entry entry;
      entry.numeric = columns.is_numeric(col);
      if (entry.numeric) {
        entry.num = &columns.numeric_column(col);
      } else {
        entry.nom = &columns.nominal_column(col);
      }
      entries_.push_back(entry);
    }
  }

  /// Number of raw-feature columns in the table.
  std::size_t size() const { return entries_.size(); }

  bool is_numeric(std::size_t col) const { return entries_[col].numeric; }
  const NumericColumn& numeric(std::size_t col) const {
    return *entries_[col].num;
  }
  const NominalColumn& nominal(std::size_t col) const {
    return *entries_[col].nom;
  }

  /// Unchecked equivalent of IsSameCode above.
  std::int8_t IsSame(std::size_t col, std::size_t i, std::size_t j,
                     double sim_fraction) const {
    const Entry& entry = entries_[col];
    if (entry.numeric) {
      const NumericColumn& c = *entry.num;
      return IsSameNumeric(c.present.Test(i), c.values[i], c.present.Test(j),
                           c.values[j], sim_fraction);
    }
    const NominalColumn& c = *entry.nom;
    return IsSameNominal(c.codes[i], c.codes[j]);
  }

 private:
  struct Entry {
    bool numeric = false;
    const NumericColumn* num = nullptr;
    const NominalColumn* nom = nullptr;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Packed pair codes: the k isSame codes of one ordered pair stored 2 bits
// per feature in uint64_t words, so whole-pair agreement tests reduce to a
// handful of word operations (XOR + mask + popcount) instead of k compares
// and branches. SimButDiff's similarity scan (Algorithm 2 lines 4-11) runs
// on these.
//
// Field layout: feature f occupies bits [2*(f mod 32), 2*(f mod 32)+1] of
// word f/32, holding the isSame code masked to two bits:
//   kFalseCode   (0) -> 0b00
//   kTrueCode    (1) -> 0b01
//   kMissingCode (-1) -> 0b11
// The mapping is injective, so 2-bit field equality is exactly isSame code
// equality (and therefore exactly Value equality of the isSame pair
// features — missing compares equal only to missing). Fields past the last
// feature of the final word are zero in every packed vector produced here,
// so they never register as disagreements.
// ---------------------------------------------------------------------------

/// Portable 64-bit popcount / count-trailing-zeros (C++17 predates
/// std::popcount / std::countr_zero).
inline int PopCount(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(x);
#else
  int count = 0;
  for (; x != 0; x &= x - 1) ++count;
  return count;
#endif
}

/// Trailing zero count of a nonzero word.
inline int CountTrailingZeros(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(x);
#else
  int count = 0;
  while ((x & 1) == 0) {
    x >>= 1;
    ++count;
  }
  return count;
#endif
}

/// Features per packed word (64 bits / 2 bits per feature).
inline constexpr std::size_t kPackedFeaturesPerWord = 32;

/// Mask with the low bit of every 2-bit field set; the disagreement masks
/// below have set bits only at these positions.
inline constexpr std::uint64_t kPackedFieldLsbMask = 0x5555555555555555ull;

/// 2-bit field of one isSame code.
inline std::uint64_t PackedField(std::int8_t code) {
  return static_cast<std::uint64_t>(static_cast<std::uint8_t>(code)) & 0x3u;
}

/// The k isSame codes of one ordered pair, packed 2 bits per feature.
class PackedIsSameCodes {
 public:
  PackedIsSameCodes() = default;
  explicit PackedIsSameCodes(std::size_t features)
      : features_(features),
        words_((features + kPackedFeaturesPerWord - 1) / kPackedFeaturesPerWord,
               0) {}

  std::size_t features() const { return features_; }
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  const std::uint64_t* words() const { return words_.data(); }
  /// The word span the packing primitive (PackIsSameCodesRaw) writes.
  std::uint64_t* mutable_words() { return words_.data(); }

  /// Overwrites the field of feature `f` (for hand-built vectors).
  void SetCode(std::size_t f, std::int8_t code) {
    const std::size_t shift = 2 * (f % kPackedFeaturesPerWord);
    std::uint64_t& w = words_[f / kPackedFeaturesPerWord];
    w = (w & ~(std::uint64_t{0x3} << shift)) | (PackedField(code) << shift);
  }

  /// Decodes the field of feature `f` back to the isSame code.
  std::int8_t CodeAt(std::size_t f) const {
    const std::uint64_t field =
        (words_[f / kPackedFeaturesPerWord] >>
         (2 * (f % kPackedFeaturesPerWord))) &
        0x3u;
    return field == 0x3u ? kMissingCode : static_cast<std::int8_t>(field);
  }

 private:
  std::size_t features_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Packs every isSame code of the ordered row pair (i, j). Identical codes
/// to calling table.IsSame(f, i, j, sim_fraction) for each f.
PackedIsSameCodes PackIsSameCodes(const RawColumnTable& table, std::size_t i,
                                  std::size_t j, double sim_fraction);

/// Re-packs the codes of pair (i, j) into `packed`, reusing its storage —
/// the allocation-free form of PackIsSameCodes for scans that pack one
/// pair per iteration (SimButDiff's streamed rows with several pairs of
/// interest). `packed` must already span table.size() features; every
/// field is overwritten, padding stays zero.
void PackIsSameCodesInto(const RawColumnTable& table, std::size_t i,
                         std::size_t j, double sim_fraction,
                         PackedIsSameCodes* packed);

/// Packs the codes of pair (i, j) directly into a caller-owned word span —
/// the storage-free primitive behind PackIsSameCodes/PackIsSameCodesInto,
/// and the per-pair oracle of the TilePool's column-at-a-time row kernel.
/// `words` must hold ceil(table.size() / kPackedFeaturesPerWord) words;
/// every word is overwritten and padding fields past the last feature are
/// zero.
void PackIsSameCodesRaw(const RawColumnTable& table, std::size_t i,
                        std::size_t j, double sim_fraction,
                        std::uint64_t* words);

/// Word-level disagreement mask of two packed words: bit 2*(f mod 32) is
/// set iff the 2-bit fields of feature f differ (XOR, fold the high bit of
/// each field onto the low bit, mask). popcount of the mask = number of
/// disagreeing features in the word.
inline std::uint64_t PackedDisagreeMask(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t x = a ^ b;
  return (x | (x >> 1)) & kPackedFieldLsbMask;
}

/// Number of features on which two packed vectors disagree (they must pack
/// the same feature count).
std::size_t CountPackedDisagreements(const PackedIsSameCodes& a,
                                     const PackedIsSameCodes& b);

/// Sentinel of ScanPairAgainstPoi: the pair was rejected early.
inline constexpr std::size_t kPackedRejected = static_cast<std::size_t>(-1);

/// Features per early-exit chunk of ScanPairAgainstPoi: the fused scan
/// checks the running disagreement count every 8 packed features (16
/// bits), so a hopeless pair wastes at most 7 isSame evaluations versus a
/// feature-at-a-time scan while still comparing through word operations.
inline constexpr std::size_t kPackedChunkFeatures = 8;

/// Fused pack-and-compare of pair (i, j) against the prepacked codes of the
/// pair of interest: packs the pair's isSame codes a chunk (8 features) at
/// a time, XOR + mask + popcounts each chunk against the matching slice of
/// `poi`, and abandons the pair as soon as the running disagreement count
/// exceeds `max_disagree`. Chunk granularity never accepts or rejects
/// differently from a feature-at-a-time scan — only the wasted work
/// changes.
///
/// Returns the total number of disagreeing features (<= max_disagree), or
/// kPackedRejected on early exit. On success, diff_masks[w] holds the
/// per-word disagreement mask (see PackedDisagreeMask); on rejection the
/// contents of diff_masks are unspecified. diff_masks must have room for
/// poi.word_count() words.
inline std::size_t ScanPairAgainstPoi(const RawColumnTable& table,
                                      std::size_t i, std::size_t j,
                                      double sim_fraction,
                                      const PackedIsSameCodes& poi,
                                      std::size_t max_disagree,
                                      std::uint64_t* diff_masks) {
  const std::size_t k = poi.features();
  std::size_t disagree = 0;
  std::size_t f = 0;
  for (std::size_t w = 0; w < poi.word_count(); ++w) {
    const std::uint64_t poi_word = poi.word(w);
    const std::size_t word_end = std::min(k, (w + 1) * kPackedFeaturesPerWord);
    std::uint64_t mask_word = 0;
    std::size_t shift = 2 * (f % kPackedFeaturesPerWord);
    while (f < word_end) {
      const std::size_t chunk_end =
          std::min(word_end, f + kPackedChunkFeatures);
      std::uint64_t chunk = 0;
      const std::size_t chunk_shift = shift;
      for (; f < chunk_end; ++f, shift += 2) {
        chunk |= PackedField(table.IsSame(f, i, j, sim_fraction)) << shift;
      }
      // Slice the poi word down to this chunk's fields; fields the chunk
      // does not cover must not register.
      const std::uint64_t chunk_mask =
          ((std::uint64_t{1} << (shift - chunk_shift)) - 1) << chunk_shift;
      const std::uint64_t mask =
          PackedDisagreeMask(chunk, poi_word & chunk_mask);
      mask_word |= mask;
      disagree += static_cast<std::size_t>(PopCount(mask));
      if (disagree > max_disagree) return kPackedRejected;
    }
    diff_masks[w] = mask_word;
  }
  return disagree;
}

/// Word-level agreement test of an already-packed pair against the
/// prepacked codes of the pair of interest: XOR + mask + popcount per
/// word, abandoning the pair once the running disagreement count exceeds
/// `max_disagree`: the per-request test of a streamed pair that was
/// packed once for several pairs of interest. Word granularity
/// accepts/rejects exactly as the 8-feature-chunk ScanPairAgainstPoi
/// does — only the wasted work differs.
///
/// Returns the total number of disagreeing features (<= max_disagree), or
/// kPackedRejected on early exit. On success diff_masks[w] holds the
/// per-word disagreement mask; on rejection its contents are unspecified.
inline std::size_t ComparePackedAgainstPoi(const std::uint64_t* pair_words,
                                           const PackedIsSameCodes& poi,
                                           std::size_t max_disagree,
                                           std::uint64_t* diff_masks) {
  std::size_t disagree = 0;
  for (std::size_t w = 0; w < poi.word_count(); ++w) {
    const std::uint64_t mask = PackedDisagreeMask(pair_words[w], poi.word(w));
    diff_masks[w] = mask;
    disagree += static_cast<std::size_t>(PopCount(mask));
    if (disagree > max_disagree) return kPackedRejected;
  }
  return disagree;
}

/// Appends the feature indexes encoded in `diff_masks` (as produced by
/// ScanPairAgainstPoi) to `out`, in ascending order: LSB-first within each
/// word, words ascending — the same order a feature-at-a-time scan pushes
/// them.
void AppendMaskedFeatures(const std::uint64_t* diff_masks,
                          std::size_t word_count,
                          std::vector<std::size_t>& out);

}  // namespace kernel

/// Decodes kernel output codes back into the canonical Values, for Atom
/// constants and tests. `interner` is the columnar log's dictionary.
Value DecodeIsSame(std::int8_t code);
Value DecodeCompare(std::int8_t code);
Value DecodeDiff(std::int64_t packed, const StringInterner& interner);
Value DecodeBaseNominal(std::int32_t code, const StringInterner& interner);

}  // namespace perfxplain

#endif  // PERFXPLAIN_FEATURES_PAIR_FEATURE_KERNEL_H_
