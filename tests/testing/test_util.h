#ifndef PERFXPLAIN_TESTS_TESTING_TEST_UTIL_H_
#define PERFXPLAIN_TESTS_TESTING_TEST_UTIL_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "core/engine.h"
#include "log/execution_log.h"
#include "pxql/query.h"
#include "reference/reference.h"

namespace perfxplain::testing {

/// A tiny two-feature schema used across unit tests:
///   x        numeric
///   color    nominal
///   duration numeric
Schema TinySchema();

/// A record for TinySchema.
ExecutionRecord TinyRecord(const std::string& id, double x,
                           const std::string& color, double duration);

/// A synthetic job-style log whose duration is fully determined by one
/// numeric feature ("cause") plus a grid of decoy features:
///   cause   numeric in {1, 2, 4, 8}; duration = 100 * cause
///   decoy_n numeric decoy uncorrelated with duration
///   decoy_c nominal decoy ("red"/"blue")
///   duration
/// Record ids are "r000".."rNNN".
ExecutionLog CausalLog(std::size_t n, std::uint64_t seed);

/// Builds a query "OBSERVED duration_compare = GT EXPECTED
/// duration_compare = SIM" with an optional despite text, bound to nothing.
Query GtVsSimQuery(const std::string& despite_text = "");

/// One adversarial log shape for the eviction-equivalence and result-cache
/// suites — logs chosen to stress the paths a benign random log never
/// touches (see AdversarialLogs() for the named set).
struct AdversarialLogSpec {
  std::string name;       ///< test-failure label
  std::size_t rows = 24;
  std::uint64_t seed = 7;
  /// Every record's values appear twice under distinct ids (stresses
  /// tie-breaking among identical pairs); the builder also verifies that a
  /// literally duplicate execution id is rejected by ExecutionLog::Add.
  bool duplicated_rows = false;
  /// One numeric column is Missing in every record (a feature no pair can
  /// ever agree on via a value).
  bool all_missing_column = false;
  /// The nominal column holds a distinct value per record — one giant
  /// dictionary, so no two pairs share a nominal isSame=T via equality.
  bool giant_dictionary = false;
};

/// Builds the log of `spec`: schema x (numeric), color (nominal),
/// y (numeric), duration (numeric) with Missing/NaN/comma-bearing payloads
/// sprinkled like the equivalence suites' awkward logs, reshaped per the
/// spec's toggles. Ids are "r000".."rNNN" ("d000".. for duplicated rows).
ExecutionLog AdversarialLog(const AdversarialLogSpec& spec);

/// The named set both suites iterate: "baseline" (awkward payloads only),
/// "duplicate-rows", "all-missing-column", "single-row" (rows = 1) and
/// "giant-dictionary".
std::vector<AdversarialLogSpec> AdversarialLogSpecs();

/// Writes the ids of the `skip`-th pair of interest of `query` over `log`
/// (the reference's FindPairOfInterest) into the query; false when none.
bool PickPair(const ExecutionLog& log, Query& query, std::size_t skip = 0);

/// Engine::Prepare then Engine::Explain under `request`: the response's
/// explanation, or the status of whichever step failed.
Result<Explanation> PrepareAndExplain(const Engine& engine,
                                      const Query& query,
                                      const ExplainRequest& request = {});

/// Parses predicate text or dies.
Predicate MustPredicate(const std::string& text);

/// Asserts that two answers are bitwise identical: the same status code,
/// or the same because atoms with exactly equal scores.
void ExpectSameExplanation(const Result<Explanation>& actual,
                           const Result<Explanation>& expected,
                           const std::string& context);

/// Asserts that an engine answer is the reference's: the same status
/// code, or the same atoms (compared printed too, which tells -0 from 0)
/// with bitwise-equal gains, scores and after-metrics.
void ExpectMatchesReference(const Result<Explanation>& actual,
                            const Result<reference::Clause>& expected,
                            const std::string& context);

}  // namespace perfxplain::testing

#endif  // PERFXPLAIN_TESTS_TESTING_TEST_UTIL_H_
