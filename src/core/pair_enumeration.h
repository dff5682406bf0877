#ifndef PERFXPLAIN_CORE_PAIR_ENUMERATION_H_
#define PERFXPLAIN_CORE_PAIR_ENUMERATION_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/row_stripe.h"
#include "common/status.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "ml/sampler.h"
#include "pxql/compiled_predicate.h"
#include "pxql/query.h"

namespace perfxplain {

/// Classification of one pair with respect to a query (Definitions 7-9).
enum class PairLabel {
  kUnrelated,  ///< fails des, or satisfies neither obs nor exp
  kObserved,   ///< des && obs
  kExpected,   ///< des && exp
};

/// Labels the pair of rows (i, j) of the query's compiled-against log,
/// allocation-free (des first, so unrelated pairs cost only the des atoms).
PairLabel ClassifyPairCompiled(const CompiledQuery& query, std::size_t i,
                               std::size_t j, double sim_fraction);

/// Controls the row-blocked parallel enumeration of the columnar fast
/// path. Results are bitwise identical for every thread count: per-thread
/// partial results are merged in row order and all sampling randomness is
/// replayed serially.
struct EnumerationOptions {
  /// 0 uses the process-wide default (SetDefaultEnumerationThreads, itself
  /// defaulting to the hardware concurrency).
  int threads = 0;

  /// Max related pairs ScanRelatedPairs may buffer (12 bytes each, plus
  /// at most one first row's pairs per stripe before the overflow is
  /// seen). Under the cap, sampling replays the draws from the buffer (one
  /// scan total); above it, the buffer is discarded and SampleFromScan
  /// runs a second, streaming scan for the draws with O(accepted) memory.
  /// Both paths produce identical results. 0 forces the streaming path.
  std::size_t sample_buffer_cap = std::size_t{1} << 21;

  /// Candidate-pair pruning: derive the query's despite selection
  /// (CompiledPredicate::DeriveSelection — row filters plus equi-join and
  /// band-join partner lists), enumerate only its candidate pairs instead
  /// of n² and classify them with the residual despite program. Pruned
  /// pairs all fail des (they are unrelated and touch no tally), and the
  /// residual agrees with the full program on every candidate pair, so
  /// results are bitwise identical either way; `false` scans every pair
  /// with the full program, for the equivalence tests and the
  /// BM_SelectiveQueryPruning / BM_EquiJoinPruning / BM_BandJoinPruning
  /// baselines.
  bool prune = true;
};

/// The candidate pairs a despite-first scan visits and the query it
/// classifies them with.
struct CandidatePairs {
  PairSelection selection;
  /// The scanned query, its despite program reduced to the residual that
  /// the selection does not already guarantee.
  CompiledQuery query;
};

/// The one place a despite-first scan gets its pairs: the despite
/// program's selection and residual (CompiledPredicate::DeriveSelection
/// at `sim_fraction`) when pruning is on, every ordered pair and the full
/// query otherwise. Pruned pairs fail des and the residual agrees with
/// des on every candidate, so scans over either produce bitwise-identical
/// results. `sim_fraction` must be the one the scan classifies with.
CandidatePairs SelectCandidatePairs(const CompiledQuery& query,
                                    std::size_t rows, double sim_fraction,
                                    const EnumerationOptions& enumeration);

/// The one candidate walker every pair scan runs on: for the first-row
/// slots [begin, end) of `selection`, in ascending order, checks for
/// interruption and calls row_fn(i, partners) with the slot's first row
/// and its ascending partner list. row_fn returning false stops the walk;
/// the walker then returns false.
template <typename RowFn>
bool ForEachCandidateRow(const PairSelection& selection, std::size_t begin,
                         std::size_t end, RowFn&& row_fn) {
  for (std::size_t s = begin; s < end; ++s) {
    ThrowIfInterrupted();
    if (!row_fn(selection.first_row(s), selection.Partners(s))) return false;
  }
  return true;
}

/// Calls pair_fn(i, j) for every partner j != i, ascending; pair_fn
/// returning false stops the walk (and this returns false). The identity
/// list of an unconstrained scan runs as a plain counted loop.
template <typename PairFn>
bool ForEachPartner(std::size_t i, const CandidateRows& partners,
                    PairFn&& pair_fn) {
  if (partners.all_rows()) {
    for (std::size_t j = 0; j < partners.size(); ++j) {
      if (j != i && !pair_fn(i, j)) return false;
    }
    return true;
  }
  for (std::size_t k = 0; k < partners.size(); ++k) {
    const std::size_t j = partners[k];
    if (j != i && !pair_fn(i, j)) return false;
  }
  return true;
}

/// Serial walk over every candidate pair of `selection` in row-major
/// order; pair_fn returning false stops it early.
template <typename PairFn>
bool ForEachCandidatePair(const PairSelection& selection, PairFn&& pair_fn) {
  return ForEachCandidateRow(
      selection, 0, selection.first_count(),
      [&](std::size_t i, const CandidateRows& partners) {
        return ForEachPartner(i, partners, pair_fn);
      });
}

/// Row-blocked parallel walk: resizes `partials` to the stripe count,
/// stripes the candidate first rows into contiguous ascending chunks and
/// calls row_body(partials[stripe], i, partners) per first row. The
/// caller merges the partials in index order, which reproduces the
/// row-major result for any thread count.
template <typename Partial, typename RowBody>
void ScanCandidateRows(const PairSelection& selection,
                       const EnumerationOptions& enumeration,
                       std::vector<Partial>& partials, RowBody&& row_body) {
  const int threads = ResolveThreads(enumeration.threads);
  const std::size_t first = selection.first_count();
  partials.assign(RowStripeCount(first, threads), Partial{});
  ForEachRowStripe(first, threads,
                   [&](std::size_t block, std::size_t begin,
                       std::size_t end) {
                     // Accumulate into a stripe-local partial so counters
                     // stay in registers; store once at stripe end.
                     Partial local{};
                     ForEachCandidateRow(
                         selection, begin, end,
                         [&](std::size_t i, const CandidateRows& partners) {
                           row_body(local, i, partners);
                           return true;
                         });
                     partials[block] = std::move(local);
                   });
}

/// ScanCandidateRows at pair granularity: per_pair(partials[stripe], i, j)
/// for every candidate pair, diagonal skipped.
template <typename Partial, typename PerPair>
void ScanCandidatePairs(const PairSelection& selection,
                        const EnumerationOptions& enumeration,
                        std::vector<Partial>& partials, PerPair&& per_pair) {
  ScanCandidateRows(selection, enumeration, partials,
                    [&](Partial& local, std::size_t i,
                        const CandidateRows& partners) {
                      ForEachPartner(i, partners,
                                     [&](std::size_t, std::size_t j) {
                                       per_pair(local, i, j);
                                       return true;
                                     });
                    });
}

/// Counts of related pairs by label.
struct RelatedCounts {
  std::size_t observed = 0;
  std::size_t expected = 0;
  std::size_t total() const { return observed + expected; }
};

/// The related pairs of one scan in row-major order, held as the scan
/// stripes' own buffers in stripe order (stripes ascend), so a scan hands
/// them over without copying.
class RelatedPairs {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The k-th pair in row-major order (walks the segments).
  const PairRef& operator[](std::size_t k) const;
  const PairRef& front() const { return (*this)[0]; }
  void push_back(const PairRef& pair);
  /// Appends `segment`'s pairs after those held, taking its buffer.
  void Append(std::vector<PairRef> segment);

  /// Calls fn(pair) for every pair in row-major order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::vector<PairRef>& segment : segments_) {
      for (const PairRef& pair : segment) fn(pair);
    }
  }

 private:
  std::vector<std::vector<PairRef>> segments_;
  std::size_t size_ = 0;
};

/// The pair-of-interest-independent half of lines 1-2 of Algorithm 1: the
/// Definition 8/9 label counts plus — unless the buffer cap overflowed —
/// every related pair in row-major order. One scan of a query *shape*
/// serves any number of pairs of interest: Explainer::ExplainPrepared
/// runs it once per call and draws each request's sample from it.
struct RelatedPairScan {
  RelatedCounts counts;
  /// Row-major related pairs; empty and meaningless when `overflowed`.
  RelatedPairs related;
  /// True when more than EnumerationOptions::sample_buffer_cap pairs were
  /// related: the buffer was discarded and SampleFromScan streams the
  /// draws instead.
  bool overflowed = false;
};

/// The counting pass of constructTrainingExamples, shared across the
/// queries of one shape. Selection-pruned like every despite-first scan.
/// Overflows when more than sample_buffer_cap pairs are related; stripes
/// account for the cap once per first row. With sample_buffer_cap = 0 it
/// only counts.
RelatedPairScan ScanRelatedPairs(const ColumnarLog& columns,
                                 const CompiledQuery& query,
                                 double sim_fraction,
                                 const EnumerationOptions& enumeration = {});

/// The serial §4.3 acceptance replay over an already-collected scan
/// (which must not be overflowed): computes the balanced acceptance
/// probabilities from the counts and draws one Bernoulli per related pair
/// (except the pair of interest) in row-major order — bit-identical to
/// SampleFromScan's streaming draws for the same Rng. `rows` is the
/// scanned log's row count (pair-of-interest bounds check only).
Result<std::vector<PairRef>> ReplaySampleDraws(
    const RelatedPairScan& scan, std::size_t rows, std::size_t poi_first,
    std::size_t poi_second, const SamplerOptions& sampler_options, Rng& rng,
    bool balanced = true);

/// sample (line 2 of Algorithm 1) over a finished ScanRelatedPairs of
/// `query`, pair of interest first: replayed from a buffered scan, or
/// streamed over a serial re-enumeration of the candidate pairs with
/// O(accepted) memory when the scan overflowed. Both draw the same pairs
/// for the same Rng.
Result<std::vector<PairRef>> SampleFromScan(
    const RelatedPairScan& scan, const ColumnarLog& columns,
    const CompiledQuery& query, std::size_t poi_first,
    std::size_t poi_second, double sim_fraction,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced = true,
    const EnumerationOptions& enumeration = {});

/// Finds a pair of interest for the query: an ordered pair satisfying
/// des AND obs (and therefore, by Definition 1, not exp). `skip` ordered
/// pairs matching the condition are passed over first, so callers can pick
/// different exemplars. Returns (first, second) row indexes. The scan is
/// serial (the expected exit is early) but each pair test runs the
/// compiled program, and only the despite clause's candidate pairs are
/// visited (unless `enumeration.prune` is off; its thread count is unused).
Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ColumnarLog& columns, const CompiledQuery& query,
    double sim_fraction, std::size_t skip = 0,
    const EnumerationOptions& enumeration = {});

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_PAIR_ENUMERATION_H_
