#include "core/explainer.h"

#include <algorithm>

#include "core/pair_enumeration.h"
#include "features/pair_feature_kernel.h"
#include "ml/split.h"
#include "pxql/compiled_predicate.h"

namespace perfxplain {

namespace {

/// Percentile rank of `value` within `all` (average rank for ties), in
/// [0, 1]. This is the normalizeScore step of Algorithm 1 (line 11-12):
/// raw precision and generality values are replaced by their percentile
/// ranks so that neither dominates the blended score.
double PercentileRank(double value, const std::vector<double>& all) {
  if (all.empty()) return 0.0;
  std::size_t less = 0;
  std::size_t equal = 0;
  for (double v : all) {
    if (v < value) ++less;
    else if (v == value) ++equal;
  }
  return (static_cast<double>(less) + 0.5 * static_cast<double>(equal)) /
         static_cast<double>(all.size());
}

/// The working set of a clause: every row of `data`, with the target
/// label positive — observed rows for bec, expected ones for des'
/// (relevance, the §4.2 variant of line 6 of Algorithm 1).
EncodedWorkingSet AllRows(const EncodedDataset& data, bool target_expected) {
  RowBitmap rows((data.rows() + 63) / 64, 0);
  RowBitmap positive(rows.size(), 0);
  const std::vector<std::uint8_t>& labels = data.labels();
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    rows[r >> 6] |= bit;
    if ((labels[r] != 0) != target_expected) positive[r >> 6] |= bit;
  }
  return EncodedWorkingSet(std::move(rows), std::move(positive));
}

}  // namespace

Status CheckDefinition1(const CompiledQuery& compiled, std::size_t first,
                        std::size_t second, double sim_fraction) {
  if (!compiled.despite.Eval(first, second, sim_fraction)) {
    return Status::FailedPrecondition(
        "the pair of interest does not satisfy the DESPITE clause");
  }
  if (!compiled.observed.Eval(first, second, sim_fraction)) {
    return Status::FailedPrecondition(
        "the pair of interest does not satisfy the OBSERVED clause");
  }
  if (compiled.expected.Eval(first, second, sim_fraction)) {
    return Status::FailedPrecondition(
        "the pair of interest satisfies the EXPECTED clause; there is "
        "nothing to explain");
  }
  return Status::OK();
}

Explainer::Explainer(ExplainerOptions options, const ColumnarLog* columns)
    : options_(options),
      schema_(CheckedColumns(columns).schema()),
      columnar_(columns) {}

std::vector<std::size_t> Explainer::ExcludedRawFeatures(
    const Query& bound_query) const {
  const std::vector<bool> mask = OutcomeRawFeatureMask(bound_query, schema_);
  std::vector<std::size_t> raw;
  for (std::size_t f = 0; f < mask.size(); ++f) {
    if (mask[f]) raw.push_back(f);
  }
  return raw;
}

Result<EncodedDataset> Explainer::Encode(Result<std::vector<PairRef>> sampled,
                                        const ExplainerOptions& options) const {
  if (!sampled.ok()) return sampled.status();
  std::vector<PairRef> pairs = std::move(sampled).value();
  if (options.max_pairs_per_record > 0) {
    pairs = EnforceRecordDiversity(std::move(pairs),
                                   options.max_pairs_per_record,
                                   /*keep_first=*/true);
  }
  return EncodedDataset(*columnar_, schema_, pairs,
                        options.pair.sim_fraction);
}

Result<EncodedDataset> Explainer::BuildEncodedExamplesFromScan(
    const Query& bound_query, const RelatedPairScan& scan,
    std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options) const {
  (void)bound_query;  // the scan already encodes the query's shape
  Rng rng(options.seed);
  return Encode(
      ReplaySampleDraws(scan, columnar_->rows(), poi_first, poi_second,
                        options.sampler, rng, options.balanced_sampling),
      options);
}

Result<EncodedDataset> Explainer::EncodeFromScan(
    const CompiledQuery& compiled, const RelatedPairScan& scan,
    std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options,
    const EnumerationOptions& enumeration) const {
  Rng rng(options.seed);
  return Encode(SampleFromScan(scan, *columnar_, compiled, poi_first,
                               poi_second, options.pair.sim_fraction,
                               options.sampler, rng,
                               options.balanced_sampling, enumeration),
                options);
}

Result<EncodedDataset> Explainer::ScanAndEncode(
    const CompiledQuery& compiled, std::size_t poi_first,
    std::size_t poi_second, const ExplainerOptions& options,
    const EnumerationOptions& enumeration) const {
  return EncodeFromScan(compiled,
                        ScanRelatedPairs(*columnar_, compiled,
                                         options.pair.sim_fraction,
                                         enumeration),
                        poi_first, poi_second, options, enumeration);
}

Result<Explanation> Explainer::ExplainPreparedWithExamples(
    const Query& bound, const EncodedDataset& examples,
    const ExplainerOptions& options) const {
  Explanation explanation;
  explanation.because_trace = GenerateClauseEncoded(
      examples, options.width, /*target_expected=*/false,
      ExcludedRawFeatures(bound), bound.despite.atoms(), options);
  explanation.because = ClauseToPredicate(explanation.because_trace);
  if (explanation.because.is_true()) {
    return Status::Internal("no applicable because clause could be built");
  }
  return explanation;
}

// Lines 3-17 of Algorithm 1; see Explainer's class comment for the
// per-step structure. The working set and its labels are row bitmaps over
// the training matrix, and each feature's search carries the counts the
// scores need, so nothing is recounted.
std::vector<ExplanationAtom> Explainer::GenerateClauseEncoded(
    const EncodedDataset& examples, std::size_t width, bool target_expected,
    const std::vector<std::size_t>& excluded_raw,
    const std::vector<Atom>& redundant_atoms,
    const ExplainerOptions& options) const {
  const PairSchema& schema = schema_;
  EncodedSplitIndex index(examples);
  EncodedWorkingSet working = AllRows(examples, target_expected);
  std::vector<ExplanationAtom> trace;
  if (working.total() == 0) return trace;
  std::vector<bool> excluded(schema.raw_size(), false);
  for (std::size_t raw : excluded_raw) {
    if (raw < excluded.size()) excluded[raw] = true;
  }
  std::vector<bool> used_features(schema.size(), false);

  SplitOptions split_options;

  for (std::size_t step = 0; step < width; ++step) {
    // Candidates isolating (almost) nothing but the pair of interest look
    // perfectly precise on the sample yet do not generalize; require a
    // sliver of support.
    split_options.min_support =
        std::max<std::size_t>(3, working.total() / 100);
    // Line 5: best (max info gain) predicate per feature.
    struct Candidate {
      SplitCandidate split;
      std::size_t pair_index;
      double metric = 0.0;      ///< P(target | p, X) over working set
      double generality = 0.0;  ///< P(p | X) over working set
    };
    std::vector<Candidate> candidates;
    for (std::size_t f = 0; f < schema.size(); ++f) {
      if (!schema.InLevel(f, options.level)) continue;
      if (!schema.IsDefined(f)) continue;
      const std::size_t raw_index = schema.RawIndexOf(f);
      if (excluded[raw_index] || used_features[f]) continue;
      auto split =
          BestPredicateForFeatureEncoded(index, working, f, split_options);
      if (!split.has_value()) continue;
      // Atoms every related pair satisfies by construction (they restate
      // the query's despite clause) carry no information.
      bool redundant = false;
      for (const Atom& atom : redundant_atoms) {
        if (atom == split->atom) {
          redundant = true;
          break;
        }
      }
      if (redundant) continue;
      Candidate candidate;
      candidate.split = std::move(split).value();
      candidate.pair_index = f;
      candidates.push_back(std::move(candidate));
    }
    if (candidates.empty()) break;

    // Lines 6-7: precision (or relevance) and generality of each winner,
    // from the counts its search carried.
    for (Candidate& candidate : candidates) {
      const std::size_t satisfy = candidate.split.in_total;
      const std::size_t satisfy_target = candidate.split.in_positive;
      candidate.generality = static_cast<double>(satisfy) /
                             static_cast<double>(working.total());
      candidate.metric = satisfy == 0
                             ? 0.0
                             : static_cast<double>(satisfy_target) /
                                   static_cast<double>(satisfy);
    }

    // Lines 8-14: percentile-rank normalization and weighted blend.
    std::vector<double> metrics;
    std::vector<double> generalities;
    metrics.reserve(candidates.size());
    generalities.reserve(candidates.size());
    for (const Candidate& candidate : candidates) {
      metrics.push_back(candidate.metric);
      generalities.push_back(candidate.generality);
    }
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double score =
          options.normalize_scores
              ? options.precision_weight *
                        PercentileRank(candidates[c].metric, metrics) +
                    (1.0 - options.precision_weight) *
                        PercentileRank(candidates[c].generality,
                                       generalities)
              : options.precision_weight * candidates[c].metric +
                    (1.0 - options.precision_weight) *
                        candidates[c].generality;
      const bool better =
          score > best_score ||
          (score == best_score &&
           (candidates[c].metric > candidates[best].metric ||
            (candidates[c].metric == candidates[best].metric &&
             candidates[c].split.gain > candidates[best].split.gain)));
      if (c == 0 || better) {
        best = c;
        best_score = score;
      }
    }

    // Lines 16-17: extend the clause and keep only satisfying examples.
    ExplanationAtom chosen;
    chosen.atom = candidates[best].split.atom;
    chosen.info_gain = candidates[best].split.gain;
    chosen.score = best_score;
    used_features[candidates[best].pair_index] = true;

    const std::size_t before = working.total();
    working.Intersect(EncodedAtomTest(examples, chosen.atom)
                          .MatchingRows(examples));
    const std::size_t kept = working.total();
    const std::size_t target_count = working.positives();
    chosen.generality_after =
        before == 0 ? 0.0
                    : static_cast<double>(kept) /
                          static_cast<double>(before);
    chosen.metric_after = kept == 0
                              ? 0.0
                              : static_cast<double>(target_count) /
                                    static_cast<double>(kept);
    trace.push_back(std::move(chosen));
    PX_CHECK(kept > 0);  // the pair of interest always satisfies X
  }
  return trace;
}

Predicate Explainer::ClauseToPredicate(
    const std::vector<ExplanationAtom>& trace) {
  Predicate predicate;
  for (const ExplanationAtom& atom : trace) {
    predicate.Append(atom.atom);
  }
  return predicate;
}

std::vector<Result<Explanation>> Explainer::ExplainPrepared(
    const Query& bound, const CompiledQuery& compiled,
    const std::vector<PairOfInterest>& pois,
    const ExplainerOptions& base_options,
    const EnumerationOptions& enumeration) const {
  std::vector<Result<Explanation>> results(
      pois.size(), Status::Internal("pair of interest not answered"));
  const RelatedPairScan scan = ScanRelatedPairs(
      *columnar_, compiled, base_options.pair.sim_fraction, enumeration);
  // Requests agreeing on (seed, pair of interest) replay identical draws
  // and encode the identical matrix: build it once, at the first such
  // request, and answer every request of the group from it before the
  // next matrix is built.
  std::vector<bool> answered(pois.size(), false);
  for (std::size_t lead = 0; lead < pois.size(); ++lead) {
    if (answered[lead]) continue;
    const PairOfInterest& key = pois[lead];
    ExplainerOptions options = base_options;
    options.seed = key.seed;
    const Result<EncodedDataset> examples = EncodeFromScan(
        compiled, scan, key.first, key.second, options, enumeration);
    for (std::size_t r = lead; r < pois.size(); ++r) {
      const PairOfInterest& poi = pois[r];
      if (answered[r] || poi.seed != key.seed || poi.first != key.first ||
          poi.second != key.second) {
        continue;
      }
      answered[r] = true;
      options.width = poi.width;
      results[r] = examples.ok() ? ExplainPreparedWithExamples(
                                       bound, examples.value(), options)
                                 : examples.status();
    }
  }
  return results;
}

Result<Predicate> Explainer::GenerateDespitePrepared(
    const Query& bound, const CompiledQuery& compiled, std::size_t poi_first,
    std::size_t poi_second, std::size_t width,
    const ExplainerOptions& options,
    const EnumerationOptions& enumeration) const {
  auto examples =
      ScanAndEncode(compiled, poi_first, poi_second, options, enumeration);
  if (!examples.ok()) return examples.status();
  return ClauseToPredicate(GenerateClauseEncoded(
      examples.value(), width, /*target_expected=*/true,
      ExcludedRawFeatures(bound), bound.despite.atoms(), options));
}

Result<Explanation> Explainer::ExplainWithAutoDespitePrepared(
    const Query& bound, const CompiledQuery& compiled, std::size_t poi_first,
    std::size_t poi_second, const ExplainerOptions& options,
    const EnumerationOptions& enumeration) const {
  auto examples =
      ScanAndEncode(compiled, poi_first, poi_second, options, enumeration);
  if (!examples.ok()) return examples.status();

  // des' clause first, truncated at the relevance threshold.
  std::vector<ExplanationAtom> despite_trace = GenerateClauseEncoded(
      examples.value(), options.despite_width, /*target_expected=*/true,
      ExcludedRawFeatures(bound), bound.despite.atoms(), options);
  std::size_t keep = despite_trace.size();
  for (std::size_t i = 0; i < despite_trace.size(); ++i) {
    if (despite_trace[i].metric_after >=
        options.despite_relevance_threshold) {
      keep = i + 1;
      break;
    }
  }
  despite_trace.resize(keep);

  Explanation explanation;
  explanation.despite_trace = despite_trace;
  explanation.despite = ClauseToPredicate(despite_trace);

  // bec clause in the context of des AND des': a new shape, so the one
  // query this request compiles.
  Query extended = bound;
  extended.despite = extended.despite.And(explanation.despite);
  auto extended_examples = ScanAndEncode(
      CompiledQuery::Compile(extended, schema_, *columnar_), poi_first,
      poi_second, options, enumeration);
  if (!extended_examples.ok()) return extended_examples.status();
  explanation.because_trace = GenerateClauseEncoded(
      extended_examples.value(), options.width, /*target_expected=*/false,
      ExcludedRawFeatures(extended), extended.despite.atoms(), options);
  explanation.because = ClauseToPredicate(explanation.because_trace);
  if (explanation.because.is_true()) {
    return Status::Internal("no applicable because clause could be built");
  }
  return explanation;
}

}  // namespace perfxplain
