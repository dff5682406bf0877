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

/// The greedy clause loop of Algorithm 1 is generic over how the training
/// examples are stored. Both backends expose the same contract:
///  - size(): current working-set size;
///  - BestPredicate(f, options): per-feature max-info-gain candidate over
///    the working set, constrained to the pair of interest, carrying its
///    (satisfy, satisfy_target) counts over the working set;
///  - Filter(candidate): shrink the working set to satisfying examples,
///    returning (kept, kept_target).
///
/// ValueClauseDataset scans materialized Value vectors (the reference
/// oracle); EncodedClauseDataset keeps the working set and labels as row
/// bitmaps over the integer-coded training matrix and produces
/// bit-identical candidates, gains and scores.
class ValueClauseDataset {
 public:
  ValueClauseDataset(const PairSchema& schema,
                     std::vector<TrainingExample> examples,
                     bool target_expected)
      : schema_(&schema), working_(std::move(examples)) {
    if (!working_.empty()) poi_features_ = working_[0].features;
    // When generating a des' clause the "positive" label whose conditional
    // probability we maximize is `expected`; flip labels so the shared
    // machinery (which treats observed as positive) measures relevance
    // instead of precision (line 6 of Algorithm 1 and its §4.2 variant).
    if (target_expected) {
      for (TrainingExample& example : working_) {
        example.observed = !example.observed;
      }
    }
  }

  std::size_t size() const { return working_.size(); }

  std::optional<SplitCandidate> BestPredicate(
      std::size_t f, const SplitOptions& options) const {
    return BestPredicateForFeature(*schema_, working_, f, poi_features_[f],
                                   options);
  }

  std::pair<std::size_t, std::size_t> Filter(const SplitCandidate& chosen) {
    std::vector<TrainingExample> next;
    next.reserve(working_.size());
    std::size_t target_count = 0;
    for (TrainingExample& example : working_) {
      if (chosen.atom.Eval(example.features)) {
        if (example.observed) ++target_count;
        next.push_back(std::move(example));
      }
    }
    working_ = std::move(next);
    return {working_.size(), target_count};
  }

 private:
  const PairSchema* schema_;
  std::vector<TrainingExample> working_;
  std::vector<Value> poi_features_;
};

class EncodedClauseDataset {
 public:
  EncodedClauseDataset(const EncodedDataset& data, bool target_expected)
      : index_(data), working_(AllRows(data, target_expected)) {}

  std::size_t size() const { return working_.total(); }

  std::optional<SplitCandidate> BestPredicate(std::size_t f,
                                              const SplitOptions& options) {
    return BestPredicateForFeatureEncoded(index_, working_, f, options);
  }

  std::pair<std::size_t, std::size_t> Filter(const SplitCandidate& chosen) {
    const EncodedDataset& data = index_.data();
    working_.Intersect(EncodedAtomTest(data, chosen.atom).MatchingRows(data));
    return {working_.total(), working_.positives()};
  }

 private:
  /// Every row of `data`. Relevance (target_expected) counts the expected
  /// pairs as positive.
  static EncodedWorkingSet AllRows(const EncodedDataset& data,
                                   bool target_expected) {
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

  EncodedSplitIndex index_;
  EncodedWorkingSet working_;
};

/// Shared greedy loop (lines 3-17 of Algorithm 1). See Explainer's class
/// comment for the per-step structure.
template <typename Dataset>
std::vector<ExplanationAtom> GenerateClauseWith(
    Dataset& working, const PairSchema& schema,
    const ExplainerOptions& options, std::size_t width,
    const std::vector<std::size_t>& excluded_raw,
    const std::vector<Atom>& redundant_atoms) {
  std::vector<ExplanationAtom> trace;
  if (working.size() == 0) return trace;
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
        std::max<std::size_t>(3, working.size() / 100);
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
      auto split = working.BestPredicate(f, split_options);
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
      candidate.generality =
          working.size() == 0 ? 0.0
                              : static_cast<double>(satisfy) /
                                    static_cast<double>(working.size());
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

    const std::size_t before = working.size();
    const auto [kept, target_count] = working.Filter(candidates[best].split);
    chosen.generality_after =
        before == 0 ? 0.0
                    : static_cast<double>(kept) /
                          static_cast<double>(before);
    chosen.metric_after = kept == 0
                              ? 0.0
                              : static_cast<double>(target_count) /
                                    static_cast<double>(kept);
    trace.push_back(std::move(chosen));
    PX_CHECK(working.size() > 0);  // the pair of interest always satisfies X
  }
  return trace;
}

const ExecutionLog& CheckedLog(const ExecutionLog* log) {
  PX_CHECK(log != nullptr);
  return *log;
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

Explainer::Explainer(const ExecutionLog* log, ExplainerOptions options,
                     const ColumnarLog* columns)
    : log_(&CheckedLog(log)),
      options_(options),
      schema_(log->schema()),
      columnar_(columns) {
  PX_CHECK(columns != nullptr);
}

std::vector<std::size_t> Explainer::ExcludedRawFeatures(
    const Query& bound_query) const {
  const std::vector<bool> mask = OutcomeRawFeatureMask(bound_query, schema_);
  std::vector<std::size_t> raw;
  for (std::size_t f = 0; f < mask.size(); ++f) {
    if (mask[f]) raw.push_back(f);
  }
  return raw;
}

Result<std::vector<TrainingExample>> Explainer::BuildExamples(
    const Query& bound_query, std::size_t poi_first,
    std::size_t poi_second) const {
  Rng rng(options_.seed);
  auto examples = BuildTrainingExamples(
      *log_, schema_, bound_query, poi_first, poi_second, options_.pair,
      options_.sampler, rng, options_.balanced_sampling);
  if (!examples.ok() || options_.max_pairs_per_record == 0) return examples;
  return EnforceRecordDiversity(std::move(examples).value(),
                                options_.max_pairs_per_record,
                                /*keep_first=*/true);
}

Result<EncodedDataset> Explainer::BuildEncodedExamplesWith(
    const Query& bound_query, std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options) const {
  Rng rng(options.seed);
  const CompiledQuery compiled =
      CompiledQuery::Compile(bound_query, schema_, *columnar_);
  auto sampled = SampleRelatedPairs(
      *columnar_, compiled, poi_first, poi_second,
      options.pair.sim_fraction, options.sampler, rng,
      options.balanced_sampling, EnumerationOptions{options.threads});
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
  auto sampled =
      ReplaySampleDraws(scan, columnar_->rows(), poi_first, poi_second,
                        options.sampler, rng, options.balanced_sampling);
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

std::vector<ExplanationAtom> Explainer::GenerateClause(
    std::vector<TrainingExample> examples, std::size_t width,
    bool target_expected, const std::vector<std::size_t>& excluded_raw,
    const std::vector<Atom>& redundant_atoms) const {
  ValueClauseDataset working(schema_, std::move(examples), target_expected);
  return GenerateClauseWith(working, schema_, options_, width, excluded_raw,
                            redundant_atoms);
}

std::vector<ExplanationAtom> Explainer::GenerateClauseEncoded(
    const EncodedDataset& examples, std::size_t width, bool target_expected,
    const std::vector<std::size_t>& excluded_raw,
    const std::vector<Atom>& redundant_atoms,
    const ExplainerOptions& options) const {
  EncodedClauseDataset working(examples, target_expected);
  return GenerateClauseWith(working, schema_, options, width, excluded_raw,
                            redundant_atoms);
}

Predicate Explainer::ClauseToPredicate(
    const std::vector<ExplanationAtom>& trace) {
  Predicate predicate;
  for (const ExplanationAtom& atom : trace) {
    predicate.Append(atom.atom);
  }
  return predicate;
}

Result<Explanation> Explainer::ExplainPrepared(
    const Query& bound, std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options) const {
  auto examples =
      BuildEncodedExamplesWith(bound, poi_first, poi_second, options);
  if (!examples.ok()) return examples.status();
  return ExplainPreparedWithExamples(bound, examples.value(), options);
}

Result<Predicate> Explainer::GenerateDespitePrepared(
    const Query& bound, std::size_t poi_first, std::size_t poi_second,
    std::size_t width, const ExplainerOptions& options) const {
  auto examples =
      BuildEncodedExamplesWith(bound, poi_first, poi_second, options);
  if (!examples.ok()) return examples.status();
  return ClauseToPredicate(GenerateClauseEncoded(
      examples.value(), width, /*target_expected=*/true,
      ExcludedRawFeatures(bound), bound.despite.atoms(), options));
}

Result<Explanation> Explainer::ExplainWithAutoDespitePrepared(
    const Query& bound, std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options) const {
  auto examples =
      BuildEncodedExamplesWith(bound, poi_first, poi_second, options);
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

  // bec clause in the context of des AND des'.
  Query extended = bound;
  extended.despite = extended.despite.And(explanation.despite);
  auto extended_examples =
      BuildEncodedExamplesWith(extended, poi_first, poi_second, options);
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
