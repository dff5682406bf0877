#ifndef PERFXPLAIN_CORE_EXPLAINER_H_
#define PERFXPLAIN_CORE_EXPLAINER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/explanation.h"
#include "core/pair_enumeration.h"
#include "features/pair_feature_kernel.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "ml/encoded_dataset.h"
#include "ml/sampler.h"
#include "pxql/compiled_predicate.h"
#include "pxql/query.h"

namespace perfxplain {

/// Tunables of the PerfXplain explanation generator (Algorithm 1).
struct ExplainerOptions {
  /// Number of atomic predicates in the because clause (w in Algorithm 1).
  std::size_t width = 3;

  /// Blend between the normalized precision and generality scores
  /// (line 13; the paper uses 0.8, favoring precision).
  double precision_weight = 0.8;

  /// Balanced-sampling parameters (§4.3; sample size 2000 in the paper).
  SamplerOptions sampler;

  /// Pair-feature computation (10% similarity threshold).
  PairFeatureOptions pair;

  /// Which pair features the explanation may use (§6.8). Level 3 = all.
  FeatureLevel level = FeatureLevel::kLevel3;

  /// Width of machine-generated despite clauses (§6.4 uses 3).
  std::size_t despite_width = 3;

  /// Auto-despite requests stop extending the despite clause once its
  /// relevance over the training sample reaches this threshold (§4.2:
  /// "an easy modification is to set a relevance threshold r").
  double despite_relevance_threshold = 0.95;

  /// When non-zero, caps how many sampled training pairs any single
  /// execution may participate in — the diversity-biased sampling the
  /// paper suggests as future work (§4.3). 0 disables the cap.
  std::size_t max_pairs_per_record = 0;

  /// Percentile-rank normalization of the precision/generality scores
  /// before blending (lines 11-12 of Algorithm 1). Disabling reverts to
  /// the paper's earlier implementation, which the authors report let
  /// precision drown out generality. Ablated in bench_ablation.
  bool normalize_scores = true;

  /// Balanced sampling (§4.3). Disabling samples related pairs uniformly,
  /// which on skewed logs lets the majority label dominate training.
  /// Ablated in bench_ablation.
  bool balanced_sampling = true;

  /// Seed of the per-call sampling Rng; explanations are deterministic
  /// given (log, query, options).
  std::uint64_t seed = 17;

  /// Worker threads for the columnar pair enumeration (0 = process
  /// default). Thread count never changes any result — per-thread partial
  /// results merge in row order and sampling draws replay serially. The
  /// Engine reads it once per request (a request's `threads` overrides
  /// it) and hands the Explainer EnumerationOptions.
  int threads = 0;
};

/// Generates PerfXplain explanations from a log of past executions.
///
/// The despite and because clauses are built symmetrically (§4.2): a greedy
/// loop picks, at each step, the max-information-gain predicate per feature
/// (restricted to predicates the pair of interest satisfies, so the result
/// is applicable per Definition 3), scores the per-feature winners by a
/// weighted blend of percentile-normalized precision (bec) or relevance
/// (des') and generality, appends the best atom, and recurses on the
/// examples that satisfy the clause so far. Features mentioned by the
/// observed/expected clauses (the runtime metric itself) are excluded from
/// explanations.
///
/// There is one pipeline, ExplainPrepared: one query shape and any number
/// of pairs of interest. Engine::Explain runs it for one pair,
/// Engine::ExplainBatch once per group of same-shape requests; both scan
/// the PreparedQuery's compiled programs, so no request recompiles.
class Explainer {
 public:
  /// `columns` must outlive the explainer (the Engine passes its
  /// snapshot's, so every technique scans one replica).
  Explainer(ExplainerOptions options, const ColumnarLog* columns);

  const PairSchema& pair_schema() const { return schema_; }
  const ExplainerOptions& options() const { return options_; }

  /// One pair of interest of a request (row indexes), with the width and
  /// sampling seed of its explanation.
  struct PairOfInterest {
    std::size_t first = 0;
    std::size_t second = 0;
    std::size_t width = 3;
    std::uint64_t seed = 17;
  };

  /// Answers a query Engine::Prepare bound, validated and compiled
  /// (`compiled` against this explainer's columns) for every pair in
  /// `pois`, in three steps:
  ///  1. one ScanRelatedPairs of `compiled`;
  ///  2. one training matrix per distinct (seed, pair of interest), its
  ///     draws replayed from the scan's buffer or, when the scan overflowed
  ///     `enumeration.sample_buffer_cap`, streamed (SampleFromScan);
  ///  3. ExplainPreparedWithExamples per request, under `base_options`
  ///     with the request's width and seed.
  /// Result r is bitwise identical to a call with {pois[r]} alone, so
  /// `bound` may stand for any query of the same shape. The threads, cap
  /// and pruning switch of `enumeration` change no result.
  ///
  /// Here and below, `options` may differ from the constructor options
  /// only in width / despite_width / seed: anything that changes
  /// pair semantics (sim_fraction, level, sampling sizes) would
  /// desynchronize the Definition 1 check the Engine already performed.
  /// Thread-safe: only immutable state and call-local Rngs are touched.
  std::vector<Result<Explanation>> ExplainPrepared(
      const Query& bound, const CompiledQuery& compiled,
      const std::vector<PairOfInterest>& pois,
      const ExplainerOptions& base_options,
      const EnumerationOptions& enumeration) const;

  /// Step 2 of ExplainPrepared for one pair of interest over a buffered
  /// scan (not overflowed): replays the request's serial sampling draws,
  /// applies the diversity cap and encodes. `scan` must come from
  /// ScanRelatedPairs over this explainer's columns with the query's
  /// compiled programs and this engine's sim_fraction.
  Result<EncodedDataset> BuildEncodedExamplesFromScan(
      const Query& bound_query, const RelatedPairScan& scan,
      std::size_t poi_first, std::size_t poi_second,
      const ExplainerOptions& options) const;

  /// Step 3 of ExplainPrepared: the because clause over an already-built
  /// encoded training matrix (any width). BuildEncodedExamplesFromScan +
  /// ExplainPreparedWithExamples == ExplainPrepared, bitwise.
  Result<Explanation> ExplainPreparedWithExamples(
      const Query& bound, const EncodedDataset& examples,
      const ExplainerOptions& options) const;

  /// The des'-only mode behind Engine::GenerateDespite (§6.4) and the
  /// des' + bec mode of an auto-despite request, over the same scan and
  /// training matrix as ExplainPrepared. `enumeration` supplies the
  /// scans' threads, cap and pruning switch, none of which changes a
  /// result.
  Result<Predicate> GenerateDespitePrepared(
      const Query& bound, const CompiledQuery& compiled,
      std::size_t poi_first, std::size_t poi_second, std::size_t width,
      const ExplainerOptions& options,
      const EnumerationOptions& enumeration) const;
  Result<Explanation> ExplainWithAutoDespitePrepared(
      const Query& bound, const CompiledQuery& compiled,
      std::size_t poi_first, std::size_t poi_second,
      const ExplainerOptions& options,
      const EnumerationOptions& enumeration) const;

  /// The clause search behind the entry points above (lines 3-17 of
  /// Algorithm 1): generates one clause from an encoded training matrix
  /// whose row 0 is the pair of interest, under per-request `options`.
  /// `target_expected` selects des' mode (optimize relevance) versus bec
  /// mode (optimize precision). Atoms appearing verbatim in
  /// `redundant_atoms` (the query's despite clause, which every related
  /// pair satisfies) are never proposed.
  std::vector<ExplanationAtom> GenerateClauseEncoded(
      const EncodedDataset& examples, std::size_t width, bool target_expected,
      const std::vector<std::size_t>& excluded_raw,
      const std::vector<Atom>& redundant_atoms,
      const ExplainerOptions& options) const;

  /// Raw-feature indexes mentioned by the query's observed/expected clauses
  /// (excluded from candidate explanation features).
  std::vector<std::size_t> ExcludedRawFeatures(const Query& bound_query)
      const;

 private:
  static Predicate ClauseToPredicate(
      const std::vector<ExplanationAtom>& trace);

  /// Step 2 of ExplainPrepared for one pair of interest, over a buffered
  /// or overflowed scan of `compiled`.
  Result<EncodedDataset> EncodeFromScan(
      const CompiledQuery& compiled, const RelatedPairScan& scan,
      std::size_t poi_first, std::size_t poi_second,
      const ExplainerOptions& options,
      const EnumerationOptions& enumeration) const;

  /// The training matrix of one request: ScanRelatedPairs of `compiled`,
  /// then EncodeFromScan.
  Result<EncodedDataset> ScanAndEncode(
      const CompiledQuery& compiled, std::size_t poi_first,
      std::size_t poi_second, const ExplainerOptions& options,
      const EnumerationOptions& enumeration) const;

  /// The diversity cap and encoding of a drawn sample.
  Result<EncodedDataset> Encode(Result<std::vector<PairRef>> sampled,
                                const ExplainerOptions& options) const;

  ExplainerOptions options_;
  PairSchema schema_;
  const ColumnarLog* columnar_;
};

/// Definition 1 check on the compiled programs: des and obs must hold for
/// the pair of interest, exp must not. Engine::Prepare records it and
/// Engine enforces it for the PerfXplain technique.
Status CheckDefinition1(const CompiledQuery& compiled, std::size_t first,
                        std::size_t second, double sim_fraction);

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_EXPLAINER_H_
