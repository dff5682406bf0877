#ifndef PERFXPLAIN_TESTS_REFERENCE_REFERENCE_H_
#define PERFXPLAIN_TESTS_REFERENCE_REFERENCE_H_

// A naive reference of PerfXplain, written from the paper: Table 1's pair
// features, relatedness (Definitions 7-9), balanced sampling (§4.3),
// Algorithm 1 with its split search, the baselines of §5 and RReliefF.
// Brute force over Value cells and explicit pair lists, for clarity over
// speed; the equivalence suites check the engine in src/ against it.
//
// It shares no helper with the engine: it includes only the Value and Rng
// types, the raw log and schema, and the PXQL AST and parser. Where the
// paper leaves a choice open (tie-breaks, the sign of a zero threshold,
// NaN as data, min-support), it follows the program and says so there.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/value.h"
#include "log/execution_log.h"
#include "log/schema.h"
#include "pxql/ast.h"
#include "pxql/query.h"

namespace perfxplain::reference {

/// Table 1 over k raw features in the program's layout: pair feature f is
/// the isSame, compare, diff or base feature (f / k = 0..3) of raw f % k.
std::vector<std::string> PairFeatureNames(const Schema& raw);
std::vector<Value> PairVector(const Schema& raw, const ExecutionRecord& a,
                              const ExecutionRecord& b,
                              double sim_fraction = 0.10);

/// Whether `predicate` (atoms read by name) holds for the pair (a, b), at
/// the default 10% similarity like everything below.
bool Holds(const Predicate& predicate, const Schema& raw,
           const ExecutionRecord& a, const ExecutionRecord& b);

/// Definitions 7-9.
enum class Label { kUnrelated, kObserved, kExpected };
Label Classify(const Query& query, const Schema& raw, const ExecutionRecord& a,
               const ExecutionRecord& b);

/// A labeled ordered pair of log rows, with its pair features once sampled.
struct Example {
  std::size_t first = 0;
  std::size_t second = 0;
  bool observed = false;
  std::vector<Value> features;
};

/// Every related ordered pair, row-major, without features.
std::vector<Example> RelatedPairs(const ExecutionLog& log, const Query& query);

/// The `skip`-th ordered pair, row-major, satisfying des and obs.
Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ExecutionLog& log, const Query& query, std::size_t skip = 0);

/// Lines 1-2 of Algorithm 1 with §4.3's sampling: the pair of interest,
/// then each other related pair kept by one Bernoulli draw, row-major.
Result<std::vector<Example>> Sample(const ExecutionLog& log,
                                    const Query& query, std::size_t poi_first,
                                    std::size_t poi_second,
                                    std::size_t sample_size, Rng& rng,
                                    bool balanced = true);

/// maxInfoGainPredicate of Algorithm 1 for feature `name`: the best atom
/// the pair of interest's value `poi` satisfies, over the working set's
/// `values` (`positive` marks the positive ones).
struct Candidate {
  Atom atom;
  double gain = 0.0;
  std::size_t in_total = 0;
  std::size_t in_positive = 0;
};
std::optional<Candidate> BestPredicate(const std::string& name,
                                       const std::vector<Value>& values,
                                       const std::vector<bool>& positive,
                                       const Value& poi,
                                       std::size_t min_support);

/// One atom of a generated clause, with the scores its technique gave it.
struct Step {
  Atom atom;
  double info_gain = 0.0;
  double metric_after = 0.0;
  double generality_after = 0.0;
  double score = 0.0;
};
using Clause = std::vector<Step>;

struct ClauseOptions {
  std::size_t width = 3;
  bool target_expected = false;  ///< grow des' (relevance), not bec
  int level = 3;                 ///< §6.8 feature level
  double precision_weight = 0.8;
  bool normalize_scores = true;
  std::vector<std::size_t> excluded_raw;
  std::vector<Atom> redundant;  ///< atoms never proposed
};

/// Lines 3-17 of Algorithm 1; the first example is the pair of interest.
Clause GrowClause(const Schema& raw, std::vector<Example> examples,
                  const ClauseOptions& options);

/// Raw features the observed/expected clauses mention.
std::vector<std::size_t> OutcomeFeatures(const Schema& raw,
                                         const Query& query);

/// Sample, then the because clause (no outcome feature, no despite atom).
Result<Clause> PerfXplain(const ExecutionLog& log, const Query& query,
                          std::size_t poi_first, std::size_t poi_second,
                          std::size_t width, std::size_t sample_size,
                          std::uint64_t seed);

/// SimButDiff (§5.2, Algorithm 2).
Result<Clause> SimButDiff(const ExecutionLog& log, const Query& query,
                          std::size_t poi_first, std::size_t poi_second,
                          std::size_t width, double similarity = 0.9);

/// RReliefF weights of the raw features for predicting `target`, and the
/// others by descending weight.
std::vector<double> RRelieff(const ExecutionLog& log, std::size_t target,
                             std::size_t iterations, std::size_t neighbors,
                             Rng& rng);
std::vector<std::size_t> RankByWeight(const std::vector<double>& weights,
                                      std::size_t target);

/// RuleOfThumb (§5.1) over an RReliefF `ranking`.
Result<Clause> RuleOfThumb(const ExecutionLog& log, const Query& query,
                           std::size_t poi_first, std::size_t poi_second,
                           std::size_t width,
                           const std::vector<std::size_t>& ranking);

}  // namespace perfxplain::reference

#endif  // PERFXPLAIN_TESTS_REFERENCE_REFERENCE_H_
