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

/// Lines 12-17 of Algorithm 2, shared by the columnar and legacy paths:
/// rank features by the what-if score o/d and conjoin the top-w at the
/// pair's own isSame values. Identical tallies produce identical
/// explanations, bit for bit.
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

SimButDiff::SimButDiff(const ExecutionLog* log, SimButDiffOptions options,
                       const ColumnarLog* columns, const PairCodeStore* store)
    : log_(log),
      options_(options),
      schema_(log->schema()),
      columns_(columns),
      store_(store) {
  PX_CHECK(log != nullptr);
  PX_CHECK(columns != nullptr);
}

TilePool* SimButDiff::AcquireTiles(int threads) const {
  if (store_ == nullptr) return nullptr;
  const double sim = options_.pair.sim_fraction;
  const std::size_t budget = options_.pair_code_budget_bytes;
  TilePool* plane = store_->Acquire(sim, budget, threads);
  return plane != nullptr ? plane : store_->AcquireTilePool(sim, budget);
}

Result<Explanation> SimButDiff::ExplainPrepared(const Query& bound,
                                                const CompiledQuery& compiled,
                                                std::size_t poi_first,
                                                std::size_t poi_second,
                                                std::size_t width,
                                                const EnumerationOptions&
                                                    enumeration) const {
  const ColumnarLog& columns = *columns_;
  const double sim = options_.pair.sim_fraction;
  const std::size_t k = schema_.raw_size();

  // isSame features occupy pair indexes [0, k); the pair of interest's
  // values are packed 2-bit kernel codes (field equality <=> Value
  // equality), so each training pair compares against the poi with
  // XOR + mask + popcount word kernels instead of k branches.
  const kernel::RawColumnTable table(columns);
  const kernel::PackedIsSameCodes poi_codes =
      kernel::PackIsSameCodes(table, poi_first, poi_second, sim);

  // Features the obs/exp clauses mention must not appear in explanations.
  const std::vector<bool> excluded = OutcomeRawFeatureMask(bound, schema_);

  // Lines 4-11 of Algorithm 2 as one row-blocked columnar scan: for every
  // related training pair similar to the pair of interest (>= s*k agreeing
  // isSame codes), tally per-feature disagreement counts and how many of
  // the disagreeing pairs performed as expected. Tallies are integer sums,
  // so per-stripe partials merge to the same totals for any thread count.
  const std::size_t agree_threshold =
      AgreeThreshold(options_.similarity_threshold, k);
  // A threshold above k (similarity_threshold > 1) is unsatisfiable: the
  // legacy scan rejects every pair, so skip the scan rather than let
  // k - agree_threshold wrap.
  const bool satisfiable = agree_threshold <= k;
  const std::size_t max_disagree = satisfiable ? k - agree_threshold : 0;
  struct Tally {
    std::vector<std::size_t> disagree;
    std::vector<std::size_t> disagree_expected;
    std::size_t similar_pairs = 0;
    std::vector<std::uint64_t> diff_masks;   // per-pair scratch (words)
    std::vector<std::size_t> diff_features;  // per-pair scratch
    std::vector<std::uint32_t> candidates;   // per-row scratch (tile path)
  };
  std::vector<Tally> partial;
  if (satisfiable && !compiled.despite.always_false()) {
    const auto ensure_scratch = [&](Tally& local) {
      if (local.disagree.empty()) {
        local.disagree.assign(k, 0);
        local.disagree_expected.assign(k, 0);
        local.diff_masks.assign(poi_codes.word_count(), 0);
        local.diff_features.reserve(k);
        local.candidates.resize(columns.rows());
      }
    };
    const auto tally_pair = [&](Tally& local, PairLabel label) {
      ++local.similar_pairs;
      local.diff_features.clear();
      kernel::AppendMaskedFeatures(local.diff_masks.data(),
                                   poi_codes.word_count(),
                                   local.diff_features);
      const bool expected = label == PairLabel::kExpected;
      for (std::size_t f : local.diff_features) {
        ++local.disagree[f];
        if (expected) ++local.disagree_expected[f];
      }
    };
    // The snapshot-resident fast path: each first row's contiguous tile
    // from the store's pool (the filled plane, or a fractional budget's
    // frames) gets a branchless similarity pre-filter over its candidate
    // partners — pure XOR + mask + popcount over resident words, one
    // candidate-append per pair — and only the candidates similar to the
    // pair of interest pay a classification. Reordering the similarity
    // test before the classification never changes the tallied set: a
    // pair is tallied iff it is related AND similar, whichever test runs
    // first; and integer tallies merged in stripe order keep every thread
    // count bitwise identical.
    TilePool* pool = AcquireTiles(ResolveThreads(enumeration.threads));
    const std::size_t n = columns.rows();
    const std::size_t words = poi_codes.word_count();
    // Hoisted poi word: the k <= 32 filter loop reads only registers and
    // the tile.
    const std::uint64_t poi_word0 = words > 0 ? poi_codes.word(0) : 0;
    ScanCandidateRows(
        SelectCandidatePairs(compiled.despite, n, enumeration), enumeration,
        partial,
        [&](Tally& local, std::size_t i, const CandidateRows& partners) {
          ensure_scratch(local);
          const std::uint64_t* tile =
              pool != nullptr ? pool->Fetch(i) : nullptr;
          if (tile == nullptr) {
            // Streaming (no store, a budget under one row tile, or a row
            // past the pool's frames): the fused pack-and-compare,
            // classification first so unrelated pairs never pack, and
            // pairs that cannot reach the similarity threshold abandoned
            // mid-scan — cheaper than a tile build and bitwise identical
            // in what it tallies.
            ForEachPartner(i, partners, [&](std::size_t, std::size_t j) {
              if (i == poi_first && j == poi_second) return true;
              const PairLabel label =
                  ClassifyPairCompiled(compiled, i, j, sim);
              if (label == PairLabel::kUnrelated) return true;
              const std::size_t disagreed = kernel::ScanPairAgainstPoi(
                  table, i, j, sim, poi_codes, max_disagree,
                  local.diff_masks.data());
              if (disagreed != kernel::kPackedRejected) {
                tally_pair(local, label);
              }
              return true;
            });
            return;
          }
          std::uint32_t* candidates = local.candidates.data();
          std::size_t count = 0;
          if (words == 1 && partners.all_rows()) {
            // The common k <= 32 shape: one word per pair, the whole row
            // tile scanned linearly with a branchless append.
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
                disagree += static_cast<std::size_t>(
                    kernel::PopCount(kernel::PackedDisagreeMask(
                        pair[w], poi_codes.word(w))));
              }
              candidates[count] = static_cast<std::uint32_t>(j);
              count += static_cast<std::size_t>(disagree <= max_disagree);
            }
          }
          for (std::size_t c = 0; c < count; ++c) {
            const std::size_t j = candidates[c];
            if (j == i) continue;
            if (i == poi_first && j == poi_second) continue;
            const PairLabel label =
                ClassifyPairCompiled(compiled, i, j, sim);
            if (label == PairLabel::kUnrelated) continue;
            const std::uint64_t* pair = tile + j * words;
            for (std::size_t w = 0; w < words; ++w) {
              local.diff_masks[w] = kernel::PackedDisagreeMask(
                  pair[w], poi_codes.word(w));
            }
            tally_pair(local, label);
          }
        });
  }
  std::vector<std::size_t> disagree(k, 0);
  std::vector<std::size_t> disagree_expected(k, 0);
  std::size_t similar_pairs = 0;
  for (const Tally& local : partial) {
    if (local.disagree.empty()) continue;  // stripe saw no related pair
    similar_pairs += local.similar_pairs;
    for (std::size_t f = 0; f < k; ++f) {
      disagree[f] += local.disagree[f];
      disagree_expected[f] += local.disagree_expected[f];
    }
  }

  std::vector<Value> poi_is_same(k);
  for (std::size_t f = 0; f < k; ++f) {
    poi_is_same[f] = DecodeIsSame(poi_codes.CodeAt(f));
  }
  return ExplanationFromTallies(schema_, poi_is_same, excluded, disagree,
                                disagree_expected, similar_pairs,
                                options_.similarity_threshold, width);
}

std::vector<Result<Explanation>> SimButDiff::ExplainBatch(
    const std::vector<PreparedBatchQuery>& queries, int threads) const {
  const std::size_t n = queries.size();
  std::vector<Result<Explanation>> results;
  results.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    results.push_back(Status::Internal("batch query not answered"));
  }
  if (n == 0) return results;

  const ColumnarLog& columns = *columns_;
  const kernel::RawColumnTable table(columns);
  const double sim = options_.pair.sim_fraction;
  const std::size_t k = schema_.raw_size();
  const std::size_t agree_threshold =
      AgreeThreshold(options_.similarity_threshold, k);
  const bool satisfiable = agree_threshold <= k;
  const std::size_t max_disagree = satisfiable ? k - agree_threshold : 0;
  const std::size_t words =
      (k + kernel::kPackedFeaturesPerWord - 1) / kernel::kPackedFeaturesPerWord;

  // Queries whose three bound predicates are structurally identical label
  // every pair identically (equal predicates lower to equal programs), so
  // each pair is classified once per group.
  struct Group {
    std::size_t representative;  ///< index into `queries`
    bool active = false;  ///< at least one member participates in the scan
  };
  struct Request {
    std::size_t group = 0;
    std::size_t poi_first = 0;
    std::size_t poi_second = 0;
    kernel::PackedIsSameCodes poi_codes;
    bool active = false;
  };
  std::vector<Group> groups;
  std::vector<Request> requests(n);
  bool any_active = false;
  for (std::size_t r = 0; r < n; ++r) {
    const PreparedBatchQuery& query = queries[r];
    Request& request = requests[r];
    std::size_t g = 0;
    for (; g < groups.size(); ++g) {
      const Query& seen = *queries[groups[g].representative].bound;
      if (seen.despite == query.bound->despite &&
          seen.observed == query.bound->observed &&
          seen.expected == query.bound->expected) {
        break;
      }
    }
    if (g == groups.size()) groups.push_back(Group{r});
    request.group = g;
    request.poi_first = query.poi_first;
    request.poi_second = query.poi_second;
    request.poi_codes =
        kernel::PackIsSameCodes(table, query.poi_first, query.poi_second, sim);
    request.active = satisfiable && !query.compiled->despite.always_false();
    if (request.active) {
      groups[g].active = true;
      any_active = true;
    }
  }

  // The single pass over all ordered pairs. Per pair: one classification
  // per active group, one lazy packing of the pair's isSame codes, then a
  // word-level XOR+mask+popcount agreement test per related request.
  // Tallies are integer sums merged in stripe order, so any thread count
  // reproduces the serial totals.
  struct RequestTally {
    std::vector<std::size_t> disagree;
    std::vector<std::size_t> disagree_expected;
    std::size_t similar_pairs = 0;
  };
  struct Tally {
    std::vector<RequestTally> per_request;
    kernel::PackedIsSameCodes pair_codes;    // per-pair scratch
    std::vector<PairLabel> labels;           // per-group scratch
    std::vector<std::uint64_t> diff_masks;   // per-request scratch (words)
    std::vector<std::size_t> diff_features;  // per-request scratch
    /// The stripe's current row and its pool tile (nullptr: stream).
    const std::uint64_t* tile = nullptr;
    std::size_t tile_row = 0;
    bool has_tile_row = false;
  };
  std::vector<Tally> partial;
  if (any_active) {
    // The batch path reads the store's tiles too: with the plane
    // resident no pair is ever packed. Acquired only when the scan will
    // actually run, so a batch of unsatisfiable queries never pays the
    // fill.
    TilePool* pool = AcquireTiles(ResolveThreads(threads));
    ScanCandidatePairs(
        PairSelection::AllPairs(columns.rows()), EnumerationOptions{threads},
        partial,
        [&](Tally& local, std::size_t i, std::size_t j) {
          if (local.per_request.empty()) {
            local.per_request.resize(n);
            for (RequestTally& tally : local.per_request) {
              tally.disagree.assign(k, 0);
              tally.disagree_expected.assign(k, 0);
            }
            local.pair_codes = kernel::PackedIsSameCodes(k);
            local.labels.assign(groups.size(), PairLabel::kUnrelated);
            local.diff_masks.assign(words, 0);
            local.diff_features.reserve(k);
          }
          for (std::size_t g = 0; g < groups.size(); ++g) {
            local.labels[g] =
                groups[g].active
                    ? ClassifyPairCompiled(
                          *queries[groups[g].representative].compiled, i, j,
                          sim)
                    : PairLabel::kUnrelated;
          }
          const std::uint64_t* pair_words = nullptr;
          for (std::size_t r = 0; r < n; ++r) {
            const Request& request = requests[r];
            if (!request.active) continue;
            const PairLabel label = local.labels[request.group];
            if (label == PairLabel::kUnrelated) continue;
            if (i == request.poi_first && j == request.poi_second) continue;
            if (pair_words == nullptr && pool != nullptr) {
              // One fetch per stripe row; a row past the pool's frames
              // falls back to the per-pair lazy pack below.
              if (!local.has_tile_row || local.tile_row != i) {
                local.tile = pool->Fetch(i);
                local.tile_row = i;
                local.has_tile_row = true;
              }
              if (local.tile != nullptr) pair_words = local.tile + j * words;
            }
            if (pair_words == nullptr) {
              kernel::PackIsSameCodesInto(table, i, j, sim,
                                          &local.pair_codes);
              pair_words = local.pair_codes.words();
            }
            // Word-at-a-time agreement test against this request's poi.
            // Word granularity accepts/rejects exactly as the per-call
            // chunked scan does — only the wasted work differs.
            const std::size_t disagreed = kernel::ComparePackedAgainstPoi(
                pair_words, request.poi_codes, max_disagree,
                local.diff_masks.data());
            if (disagreed == kernel::kPackedRejected) continue;
            RequestTally& tally = local.per_request[r];
            ++tally.similar_pairs;
            local.diff_features.clear();
            kernel::AppendMaskedFeatures(local.diff_masks.data(), words,
                                         local.diff_features);
            const bool expected = label == PairLabel::kExpected;
            for (std::size_t f : local.diff_features) {
              ++tally.disagree[f];
              if (expected) ++tally.disagree_expected[f];
            }
          }
        });
  }

  // Merge stripes and finish each query exactly as the per-call path does.
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::size_t> disagree(k, 0);
    std::vector<std::size_t> disagree_expected(k, 0);
    std::size_t similar_pairs = 0;
    for (const Tally& local : partial) {
      if (local.per_request.empty()) continue;  // stripe saw no related pair
      const RequestTally& tally = local.per_request[r];
      similar_pairs += tally.similar_pairs;
      for (std::size_t f = 0; f < k; ++f) {
        disagree[f] += tally.disagree[f];
        disagree_expected[f] += tally.disagree_expected[f];
      }
    }
    std::vector<Value> poi_is_same(k);
    for (std::size_t f = 0; f < k; ++f) {
      poi_is_same[f] = DecodeIsSame(requests[r].poi_codes.CodeAt(f));
    }
    const std::vector<bool> excluded =
        OutcomeRawFeatureMask(*queries[r].bound, schema_);
    results[r] = ExplanationFromTallies(
        schema_, poi_is_same, excluded, disagree, disagree_expected,
        similar_pairs, options_.similarity_threshold, queries[r].width);
  }
  return results;
}

Result<Explanation> SimButDiff::ExplainLegacy(const Query& bound,
                                              std::size_t poi_first,
                                              std::size_t poi_second,
                                              std::size_t width) const {
  const std::size_t k = schema_.raw_size();
  PairFeatureView poi_view(&schema_, &log_->at(poi_first),
                           &log_->at(poi_second), &options_.pair);
  std::vector<Value> poi_is_same(k);
  for (std::size_t f = 0; f < k; ++f) {
    poi_is_same[f] = poi_view.Get(f);
  }

  const std::vector<bool> excluded = OutcomeRawFeatureMask(bound, schema_);

  const std::size_t agree_threshold =
      AgreeThreshold(options_.similarity_threshold, k);
  std::vector<std::size_t> disagree(k, 0);
  std::vector<std::size_t> disagree_expected(k, 0);
  std::vector<std::size_t> diff_features;
  diff_features.reserve(k);
  std::size_t similar_pairs = 0;

  ForEachOrderedPair(
      *log_, schema_, options_.pair,
      [&](std::size_t i, std::size_t j, const PairFeatureView& view) {
        if (i == poi_first && j == poi_second) return true;
        const PairLabel label = ClassifyPair(bound, view);
        if (label == PairLabel::kUnrelated) return true;
        diff_features.clear();
        std::size_t agree = 0;
        for (std::size_t f = 0; f < k; ++f) {
          if (view.Get(f) == poi_is_same[f]) {
            ++agree;
          } else {
            diff_features.push_back(f);
          }
          if (diff_features.size() > k - agree_threshold) return true;
        }
        if (agree < agree_threshold) return true;
        ++similar_pairs;
        const bool expected = label == PairLabel::kExpected;
        for (std::size_t f : diff_features) {
          ++disagree[f];
          if (expected) ++disagree_expected[f];
        }
        return true;
      });

  return ExplanationFromTallies(schema_, poi_is_same, excluded, disagree,
                                disagree_expected, similar_pairs,
                                options_.similarity_threshold, width);
}

}  // namespace perfxplain
