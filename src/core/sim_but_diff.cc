#include "core/sim_but_diff.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/pair_enumeration.h"
#include "features/pair_feature_kernel.h"
#include "pxql/compiled_predicate.h"

namespace perfxplain {

namespace {

/// ceil(s * k) agreeing features make a pair "similar", with the small-k
/// relaxation: unless the caller asked for exact agreement (s = 1), at
/// least one disagreement is always permitted so the what-if analysis has
/// a feature to run on.
std::size_t AgreeThreshold(double similarity_threshold, std::size_t k) {
  std::size_t agree_threshold = static_cast<std::size_t>(
      std::ceil(similarity_threshold * static_cast<double>(k)));
  if (similarity_threshold < 1.0 && agree_threshold >= k && k > 0) {
    agree_threshold = k - 1;
  }
  return agree_threshold;
}

/// Lines 12-17 of Algorithm 2: rank features by the what-if score o/d and
/// conjoin the top-w at the pair's own isSame values.
Result<Explanation> ExplanationFromTallies(
    const PairSchema& schema, const std::vector<Value>& poi_is_same,
    const std::vector<bool>& excluded,
    const std::vector<std::size_t>& disagree,
    const std::vector<std::size_t>& disagree_expected,
    std::size_t similar_pairs, double similarity_threshold,
    std::size_t width) {
  if (similar_pairs == 0) {
    return Status::FailedPrecondition(
        "no training pairs are similar to the pair of interest at "
        "threshold " +
        std::to_string(similarity_threshold));
  }

  const std::size_t k = schema.raw_size();
  struct Scored {
    std::size_t feature;
    double score;
    std::size_t support;
  };
  std::vector<Scored> scored;
  scored.reserve(k);
  for (std::size_t f = 0; f < k; ++f) {
    if (excluded[f] || disagree[f] == 0) continue;
    if (poi_is_same[f].is_missing()) continue;  // atom would be inapplicable
    scored.push_back({f, static_cast<double>(disagree_expected[f]) /
                             static_cast<double>(disagree[f]),
                      disagree[f]});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.support > b.support;
                   });

  Explanation explanation;
  for (const Scored& s : scored) {
    if (explanation.because.width() >= width) break;
    ExplanationAtom atom;
    atom.atom =
        Atom::Bound(schema, s.feature, CompareOp::kEq, poi_is_same[s.feature]);
    atom.score = s.score;
    explanation.because.Append(atom.atom);
    explanation.because_trace.push_back(std::move(atom));
  }
  if (explanation.because.is_true()) {
    return Status::FailedPrecondition(
        "SimButDiff found no scoring features for this query");
  }
  return explanation;
}

}  // namespace

SimButDiff::SimButDiff(SimButDiffOptions options, const ColumnarLog* columns,
                       const PairCodeStore* store)
    : options_(options),
      schema_(CheckedColumns(columns).schema()),
      columns_(columns),
      store_(store) {}

TilePool* SimButDiff::AcquireTiles(int threads) const {
  if (store_ == nullptr) return nullptr;
  const double sim = options_.pair.sim_fraction;
  const std::size_t budget = options_.pair_code_budget_bytes;
  TilePool* plane = store_->Acquire(sim, budget, threads);
  return plane != nullptr ? plane : store_->AcquireTilePool(sim, budget);
}

std::vector<Result<Explanation>> SimButDiff::ExplainPrepared(
    const Query& bound, const CompiledQuery& compiled,
    const std::vector<PairOfInterest>& pois,
    const EnumerationOptions& enumeration) const {
  const ColumnarLog& columns = *columns_;
  const double sim = options_.pair.sim_fraction;
  const std::size_t k = schema_.raw_size();
  const std::size_t requests = pois.size();

  // isSame features occupy pair indexes [0, k); each pair of interest's
  // values are packed 2-bit kernel codes (field equality <=> Value
  // equality), so each training pair compares against it with XOR + mask
  // + popcount word kernels instead of k branches.
  const kernel::RawColumnTable table(columns);
  std::vector<kernel::PackedIsSameCodes> poi_codes;
  poi_codes.reserve(requests);
  for (const PairOfInterest& poi : pois) {
    poi_codes.push_back(
        kernel::PackIsSameCodes(table, poi.first, poi.second, sim));
  }
  const std::size_t words =
      (k + kernel::kPackedFeaturesPerWord - 1) / kernel::kPackedFeaturesPerWord;

  // Lines 4-11 of Algorithm 2 as one row-blocked columnar scan: for every
  // related training pair similar to a pair of interest (>= s*k agreeing
  // isSame codes), tally that request's per-feature disagreement counts
  // and how many of the disagreeing pairs performed as expected. Tallies
  // are integer sums, so per-stripe partials merge to the same totals for
  // any thread count.
  const std::size_t agree_threshold =
      AgreeThreshold(options_.similarity_threshold, k);
  // A threshold above k (similarity_threshold > 1) is unsatisfiable: the
  // similarity test rejects every pair, so skip the scan rather than let
  // k - agree_threshold wrap.
  const bool satisfiable = agree_threshold <= k;
  const std::size_t max_disagree = satisfiable ? k - agree_threshold : 0;
  struct Tally {
    // Request-major: request r's counts sit at [r * k, (r + 1) * k).
    std::vector<std::size_t> disagree;
    std::vector<std::size_t> disagree_expected;
    std::vector<std::size_t> similar_pairs;  // per request
    std::vector<std::uint64_t> diff_masks;   // per-pair scratch (words)
    std::vector<std::size_t> diff_features;  // per-pair scratch
    std::vector<std::uint32_t> candidates;   // per-row scratch (tile path)
    kernel::PackedIsSameCodes pair_codes;    // per-pair scratch (streaming)
  };
  std::vector<Tally> partial;
  if (requests > 0 && satisfiable && !compiled.despite.always_false()) {
    const auto ensure_scratch = [&](Tally& local) {
      if (local.similar_pairs.empty()) {
        local.disagree.assign(requests * k, 0);
        local.disagree_expected.assign(requests * k, 0);
        local.similar_pairs.assign(requests, 0);
        local.diff_masks.assign(words, 0);
        local.diff_features.reserve(k);
        local.candidates.resize(columns.rows());
        if (requests > 1) local.pair_codes = kernel::PackedIsSameCodes(k);
      }
    };
    const auto tally_pair = [&](Tally& local, std::size_t r,
                                PairLabel label) {
      ++local.similar_pairs[r];
      local.diff_features.clear();
      kernel::AppendMaskedFeatures(local.diff_masks.data(), words,
                                   local.diff_features);
      std::size_t* disagree = local.disagree.data() + r * k;
      std::size_t* disagree_expected = local.disagree_expected.data() + r * k;
      const bool expected = label == PairLabel::kExpected;
      for (std::size_t f : local.diff_features) {
        ++disagree[f];
        if (expected) ++disagree_expected[f];
      }
    };
    // The snapshot-resident fast path: each first row's contiguous tile
    // from the store's pool (the filled plane, or a fractional budget's
    // frames) gets, per pair of interest, a branchless similarity
    // pre-filter over its candidate partners — pure XOR + mask + popcount
    // over resident words, one candidate-append per pair — and only the
    // candidates similar to that pair of interest pay a classification.
    // Reordering the similarity test before the classification never
    // changes the tallied set: a pair is tallied iff it is related AND
    // similar, whichever test runs first; and integer tallies merged in
    // stripe order keep every thread count bitwise identical.
    TilePool* pool = AcquireTiles(ResolveThreads(enumeration.threads));
    const std::size_t n = columns.rows();
    const CandidatePairs scanned =
        SelectCandidatePairs(compiled, n, sim, enumeration);
    const CompiledQuery& residual = scanned.query;
    const auto scan_tile_row = [&](Tally& local, std::size_t r, std::size_t i,
                                   const CandidateRows& partners,
                                   const std::uint64_t* tile) {
      const kernel::PackedIsSameCodes& poi = poi_codes[r];
      const std::size_t poi_first = pois[r].first;
      const std::size_t poi_second = pois[r].second;
      std::uint32_t* candidates = local.candidates.data();
      std::size_t count = 0;
      if (words == 1 && partners.all_rows()) {
        // The common k <= 32 shape: one word per pair, the whole row
        // tile scanned linearly with a branchless append; the poi word
        // is hoisted so the loop reads only registers and the tile.
        const std::uint64_t poi_word0 = poi.word(0);
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint64_t mask =
              kernel::PackedDisagreeMask(tile[j], poi_word0);
          candidates[count] = static_cast<std::uint32_t>(j);
          count += static_cast<std::size_t>(
              static_cast<std::size_t>(kernel::PopCount(mask)) <=
              max_disagree);
        }
      } else {
        for (std::size_t p = 0; p < partners.size(); ++p) {
          const std::size_t j = partners[p];
          const std::uint64_t* pair = tile + j * words;
          std::size_t disagree = 0;
          for (std::size_t w = 0; w < words; ++w) {
            disagree += static_cast<std::size_t>(kernel::PopCount(
                kernel::PackedDisagreeMask(pair[w], poi.word(w))));
          }
          candidates[count] = static_cast<std::uint32_t>(j);
          count += static_cast<std::size_t>(disagree <= max_disagree);
        }
      }
      for (std::size_t c = 0; c < count; ++c) {
        const std::size_t j = candidates[c];
        if (j == i || (i == poi_first && j == poi_second)) continue;
        const PairLabel label = ClassifyPairCompiled(residual, i, j, sim);
        if (label == PairLabel::kUnrelated) continue;
        const std::uint64_t* pair = tile + j * words;
        for (std::size_t w = 0; w < words; ++w) {
          local.diff_masks[w] =
              kernel::PackedDisagreeMask(pair[w], poi.word(w));
        }
        tally_pair(local, r, label);
      }
    };
    ScanCandidateRows(
        scanned.selection, enumeration, partial,
        [&](Tally& local, std::size_t i, const CandidateRows& partners) {
          ensure_scratch(local);
          const std::uint64_t* tile =
              pool != nullptr ? pool->Fetch(i) : nullptr;
          if (tile != nullptr) {
            for (std::size_t r = 0; r < requests; ++r) {
              scan_tile_row(local, r, i, partners, tile);
            }
            return;
          }
          // Streaming (no store, a budget under one row tile, or a row
          // past the pool's frames): classification first, once per
          // partner, so unrelated pairs never pack. One pair of interest
          // takes the fused pack-and-compare, which abandons pairs that
          // cannot reach the similarity threshold mid-scan; several share
          // one packing of the partner's codes. Both tally exactly the
          // same pairs.
          if (requests == 1) {
            const kernel::PackedIsSameCodes& poi = poi_codes[0];
            const std::size_t poi_first = pois[0].first;
            const std::size_t poi_second = pois[0].second;
            ForEachPartner(i, partners, [&](std::size_t, std::size_t j) {
              if (i == poi_first && j == poi_second) return true;
              const PairLabel label =
                  ClassifyPairCompiled(residual, i, j, sim);
              if (label == PairLabel::kUnrelated) return true;
              if (kernel::ScanPairAgainstPoi(table, i, j, sim, poi,
                                             max_disagree,
                                             local.diff_masks.data()) !=
                  kernel::kPackedRejected) {
                tally_pair(local, 0, label);
              }
              return true;
            });
            return;
          }
          ForEachPartner(i, partners, [&](std::size_t, std::size_t j) {
            const PairLabel label = ClassifyPairCompiled(residual, i, j, sim);
            if (label == PairLabel::kUnrelated) return true;
            kernel::PackIsSameCodesInto(table, i, j, sim, &local.pair_codes);
            for (std::size_t r = 0; r < requests; ++r) {
              if (i == pois[r].first && j == pois[r].second) continue;
              if (kernel::ComparePackedAgainstPoi(
                      local.pair_codes.words(), poi_codes[r], max_disagree,
                      local.diff_masks.data()) != kernel::kPackedRejected) {
                tally_pair(local, r, label);
              }
            }
            return true;
          });
        });
  }

  // Merge stripes and finish each request.
  const std::vector<bool> excluded = OutcomeRawFeatureMask(bound, schema_);
  std::vector<Result<Explanation>> results;
  results.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    std::vector<std::size_t> disagree(k, 0);
    std::vector<std::size_t> disagree_expected(k, 0);
    std::size_t similar_pairs = 0;
    for (const Tally& local : partial) {
      if (local.similar_pairs.empty()) continue;  // stripe saw no row
      similar_pairs += local.similar_pairs[r];
      for (std::size_t f = 0; f < k; ++f) {
        disagree[f] += local.disagree[r * k + f];
        disagree_expected[f] += local.disagree_expected[r * k + f];
      }
    }
    std::vector<Value> poi_is_same(k);
    for (std::size_t f = 0; f < k; ++f) {
      poi_is_same[f] = DecodeIsSame(poi_codes[r].CodeAt(f));
    }
    results.push_back(ExplanationFromTallies(
        schema_, poi_is_same, excluded, disagree, disagree_expected,
        similar_pairs, options_.similarity_threshold, pois[r].width));
  }
  return results;
}

}  // namespace perfxplain
