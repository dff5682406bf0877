#ifndef PERFXPLAIN_CORE_ENGINE_H_
#define PERFXPLAIN_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/explainer.h"
#include "core/explanation.h"
#include "core/metrics.h"
#include "core/result_cache.h"
#include "core/rule_of_thumb.h"
#include "core/sim_but_diff.h"
#include "features/pair_code_store.h"
#include "log/columnar.h"
#include "log/execution_log.h"
#include "pxql/compiled_predicate.h"
#include "pxql/parser.h"
#include "pxql/query.h"

namespace perfxplain {

/// Which explanation-generation technique to run (§4 and §5).
enum class Technique {
  kPerfXplain,
  kRuleOfThumb,
  kSimButDiff,
};

const char* TechniqueToString(Technique technique);

/// The immutable data a query runs against: the dictionary-encoded
/// columns of one log of past executions (its only copy, which every scan
/// reads), its pair schema, and the lazily filled PairCodeStore of packed
/// per-pair isSame codes. A snapshot is built once and never mutated
/// afterwards (the store's tiles are built on demand, each published once
/// and never changed, so its fills are invisible to readers), so
/// any number of Engines, PreparedQueries and worker threads may share one
/// through a shared_ptr<const LogSnapshot> — the serving-engine split
/// between shared immutable data and cheap per-request state.
class LogSnapshot {
 public:
  explicit LogSnapshot(const ExecutionLog& log)
      : id_(NextId()),
        schema_(log.schema()),
        columns_(log),
        pair_codes_(&columns_) {}

  /// Incremental promotion: `base` with `appended` after its rows. The
  /// columns copy base's and encode only the new records; append-only
  /// interning keeps every dictionary code identical, so the result is
  /// bitwise indistinguishable from a cold snapshot of the same records
  /// at the cost of the delta only. The pair-code store starts cold
  /// either way (planes fill lazily); the promoter re-warms it by passing
  /// base's filled plane as the seed of PairCodeStore::Acquire, which
  /// copies old-row tiles and packs only pairs touching new rows.
  LogSnapshot(const LogSnapshot& base, std::vector<ExecutionRecord> appended)
      : id_(NextId()),
        schema_(base.schema_),
        columns_(base.columns_, appended),
        pair_codes_(&columns_) {}

  LogSnapshot(const LogSnapshot&) = delete;
  LogSnapshot& operator=(const LogSnapshot&) = delete;

  /// Process-unique, monotonically increasing id. ResultCache keys are
  /// prefixed with it, so results of different snapshots can never
  /// collide and a retired snapshot's entries are droppable as one key
  /// range (ResultCache::InvalidateSnapshot) when engines share a cache
  /// across a snapshot rotation.
  std::uint64_t id() const { return id_; }

  /// Raises the process-wide id counter so the next snapshot gets an id
  /// strictly greater than `id`. Recovery calls this with the persisted
  /// checkpoint generation before building any snapshot, so generation
  /// ids stay monotone across restarts (a recovered process must never
  /// re-issue a generation an on-disk checkpoint already names).
  static void EnsureNextIdAfter(std::uint64_t id);

  const PairSchema& pair_schema() const { return schema_; }
  const ColumnarLog& columns() const { return columns_; }
  /// The snapshot-resident packed pair-code cache. Computed at most once
  /// per (snapshot, similarity fraction) and shared by every engine,
  /// query and thread over this snapshot; SimButDiff borrows it so
  /// sequential queries skip per-pair packing (subject to
  /// SimButDiffOptions::pair_code_budget_bytes).
  const PairCodeStore& pair_codes() const { return pair_codes_; }

 private:
  static std::uint64_t NextId();

  std::uint64_t id_;
  PairSchema schema_;
  ColumnarLog columns_;
  PairCodeStore pair_codes_;
};

/// Admission-control ceilings: an Engine estimates each request's cost
/// before running it and rejects work whose estimate exceeds a configured
/// limit with kResourceExhausted (the estimate is in the message), instead
/// of pinning cores or OOM-ing mid-scan. 0 means unlimited. Estimates are
/// upper bounds derived from the snapshot alone, so admission is
/// deterministic per (snapshot, request, limits).
struct EngineLimits {
  /// Ceiling on the candidate ordered-pair count n·(n−1) a request's scans
  /// may enumerate.
  std::size_t max_candidate_pairs = 0;
  /// Ceiling on the PairCodeStore bytes a SimButDiff request may cause to
  /// be resident, charged per-frame via PairCodeStore::ResidentBytesFor:
  /// the whole plane when the engine's pair_code_budget_bytes lets it
  /// build, otherwise the tile-pool frames that budget buys (so a
  /// fractional budget is charged its working set, not the plane it will
  /// never build). A request that would stream outright costs no store
  /// bytes and is not rejected.
  std::size_t max_pair_store_bytes = 0;
  /// Ceiling on the PerfXplain training-matrix size, estimated as
  /// (sample_size + 1) · pair-schema width cells.
  std::size_t max_training_cells = 0;
};

/// Per-technique tunables of one Engine. Fixed at construction; per-request
/// variation goes through ExplainRequest instead.
struct EngineOptions {
  ExplainerOptions explainer;
  RuleOfThumbOptions rule_of_thumb;
  SimButDiffOptions sim_but_diff;
  EngineLimits limits;

  /// Byte budget of the engine-owned ResultCache consulted before any
  /// scan: a repeated (snapshot, query, technique, width, seed, ...)
  /// request becomes one map lookup. 0 (the default) disables caching.
  /// Ignored when `result_cache` is supplied.
  std::size_t result_cache_bytes = 0;

  /// An existing cache to share instead of owning one — the snapshot-
  /// rotation pattern: engines over successive snapshots share one cache
  /// (keys embed the snapshot id, so entries never cross over) and the
  /// rotator calls ResultCache::InvalidateSnapshot(old->id()) to reclaim
  /// the retired snapshot's bytes.
  std::shared_ptr<ResultCache> result_cache;
};

/// A parsed, bound, compiled query with its pair of interest resolved —
/// the per-request state of the service API. Built once by
/// Engine::Prepare and reusable across any number of Explain calls (and
/// threads): the parse/bind/validate/compile/find work is never repeated.
/// A PreparedQuery pins the snapshot it was prepared against, so it stays
/// valid even if the Engine is destroyed first; it must only be passed to
/// an Engine sharing the same snapshot (enforced — other engines reject
/// it with InvalidArgument, since its compiled programs point into this
/// snapshot's columns).
class PreparedQuery {
 public:
  PreparedQuery() = default;

  /// The bound query (predicates bound to the snapshot's pair schema).
  const Query& bound() const { return bound_; }
  /// Row indexes of the pair of interest in the snapshot's log.
  std::size_t poi_first() const { return poi_first_; }
  std::size_t poi_second() const { return poi_second_; }
  /// The query's des/obs/exp programs compiled against the snapshot's
  /// columns.
  const CompiledQuery& compiled() const { return compiled_; }
  /// Definition 1 status: OK when des and obs hold for the pair of
  /// interest and exp does not, under the preparing engine's similarity
  /// fraction. Only the PerfXplain technique enforces Definition 1 — the
  /// baselines answer queries whose pair of interest violates it, as
  /// they always did — and enforcement re-derives the check under the
  /// *executing* engine's options (engines sharing a snapshot may run
  /// different similarity fractions).
  const Status& definition1() const { return definition1_; }
  /// The snapshot this query was prepared against.
  const std::shared_ptr<const LogSnapshot>& snapshot() const {
    return snapshot_;
  }

 private:
  friend class Engine;

  std::shared_ptr<const LogSnapshot> snapshot_;
  Query bound_;
  std::size_t poi_first_ = 0;
  std::size_t poi_second_ = 0;
  CompiledQuery compiled_;
  Status definition1_;
};

/// One explanation request: the technique to run plus the per-request
/// knobs. Everything not settable here comes from the EngineOptions fixed
/// at Engine construction.
struct ExplainRequest {
  Technique technique = Technique::kPerfXplain;

  /// Number of atoms in the because clause; 0 uses the engine's configured
  /// ExplainerOptions::width.
  std::size_t width = 0;

  /// PerfXplain technique only: machine-generate a des' clause first and
  /// fold it into the query (§4.2 / §6.4). Ignored by the baselines.
  bool auto_despite = false;

  /// Also measure the explanation's metrics over the engine's log (an
  /// O(n^2) scan — off by default).
  bool evaluate = false;

  /// Override of the sampling seed (PerfXplain technique). Explanations
  /// stay deterministic given (snapshot, query, options, seed).
  std::optional<std::uint64_t> seed;

  /// Override of the enumeration worker-thread count for this request.
  /// Observation-free: results are identical for every value.
  std::optional<int> threads;

  /// Soft deadline in milliseconds, measured from Explain entry; 0 = none.
  /// Long-running loops checkpoint cooperatively and the request returns
  /// kDeadlineExceeded once the deadline passes. Whenever no deadline
  /// fires the result is bitwise identical to an unbounded run — the
  /// checkpoints never alter any computed value.
  std::int64_t deadline_ms = 0;

  /// Optional shared cancellation flag. Any thread may call Cancel() at
  /// any time; the request observes it at its next checkpoint and returns
  /// kCancelled. The same token may be shared by many requests. Neither
  /// cancellation nor a deadline can corrupt the shared LogSnapshot: an
  /// interrupted PairCodeStore build is rolled back and rebuilt by the
  /// next request.
  std::shared_ptr<const CancelToken> cancel;
};

/// What one request produced: the explanation plus measured wall-clock
/// timings (and metrics when requested).
struct ExplainResponse {
  Technique technique = Technique::kPerfXplain;
  Explanation explanation;

  /// Generation id of the LogSnapshot this response was computed on
  /// (LogSnapshot::id of the answering engine's snapshot). During a live
  /// rotation, requests prepared before the swap drain on the old
  /// generation while new ones run on the new — this field tells callers
  /// which one each response observed.
  std::uint64_t snapshot_id = 0;

  /// Metrics over the engine's log, when ExplainRequest::evaluate was set.
  std::optional<ExplanationMetrics> metrics;

  /// Wall-clock cost of generating the explanation. For requests answered
  /// by a shared scan of ExplainBatch this is the amortized share (the
  /// shape group's time / its requests) — the batch's whole point.
  double explain_ms = 0.0;
  /// Wall-clock cost of the evaluate scan (0 when not requested).
  double evaluate_ms = 0.0;
  /// True when the response came from an ExplainBatch shared scan.
  bool batched = false;
  /// SimButDiff technique only: whether the request ran on the snapshot's
  /// filled pair-code plane (within the engine's memory budget) ...
  bool pair_store_hit = false;
  /// ... and whether this very call completed the plane's one-time fill.
  /// bench::RunOnce surfaces both so trajectory timings are not silently
  /// polluted by build cost. Approximate under concurrency: a build
  /// finishing on another thread mid-call can also flip it.
  bool pair_store_built = false;
  /// True when the whole response came out of the engine's ResultCache —
  /// no scan ran and explain_ms is the lookup cost. Always false when the
  /// engine has no cache (EngineOptions::result_cache_bytes = 0).
  bool result_cache_hit = false;
  /// Tile-pool traffic this request drove (SimButDiff under a fractional
  /// pair-code budget only; all zero on the plane and streaming paths).
  /// Deltas of the store's counters bracketing the call, so approximate
  /// under concurrency like pair_store_built. A tile's frame is never
  /// reused, so tile_evictions is always 0 (kept for report formats).
  std::uint64_t tile_hits = 0;
  std::uint64_t tile_misses = 0;
  std::uint64_t tile_evictions = 0;
};

/// The one public front door: one immutable LogSnapshot, one
/// Explainer/SimButDiff/RuleOfThumb bound to it, and stateless per-request
/// execution. `Explain` is safe to call from any number of threads
/// concurrently — all technique state is immutable after construction
/// except the lazily built RuleOfThumb ranking, which is initialized
/// behind std::call_once. Prepare is the only place a request's query is
/// bound, validated and resolved (FindPairOfInterest only looks one up).
///
/// Typical use:
///   Engine engine(job_log);
///   auto prepared = engine.PrepareText(
///       "FOR J1, J2 WHERE J1.JobID = 'job_000001' AND "
///       "J2.JobID = 'job_000002' "
///       "DESPITE numinstances_isSame = T "
///       "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM");
///   ExplainRequest request;
///   request.evaluate = true;
///   auto response = engine.Explain(*prepared, request);
class Engine {
 public:
  explicit Engine(const ExecutionLog& log, EngineOptions options = {});
  /// Shares an existing snapshot (e.g. with other Engines serving the
  /// same log under different options).
  explicit Engine(std::shared_ptr<const LogSnapshot> snapshot,
                  EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const std::shared_ptr<const LogSnapshot>& snapshot() const {
    return snapshot_;
  }
  /// The snapshot's rows decoded to a fresh ExecutionLog (a copy, not a
  /// view: bind it to a value before taking references into it).
  ExecutionLog log() const { return snapshot_->columns().ToLog(); }
  const PairSchema& pair_schema() const { return snapshot_->pair_schema(); }
  const EngineOptions& options() const { return options_; }
  const Explainer& explainer() const { return *explainer_; }
  /// The engine's result cache; null when caching is disabled. Shared
  /// with the caller that supplied EngineOptions::result_cache.
  const std::shared_ptr<ResultCache>& result_cache() const {
    return result_cache_;
  }

  /// Parses, binds, validates and compiles the query and resolves its pair
  /// of interest — everything per-query that does not depend on the
  /// request. Definition 1 is checked here but only recorded (see
  /// PreparedQuery::definition1).
  Result<PreparedQuery> Prepare(const Query& query) const;
  Result<PreparedQuery> PrepareText(const std::string& pxql) const;

  /// Finds a pair for a query that names none: binds and compiles a copy
  /// of `query` against the snapshot and returns the `skip`-th ordered
  /// pair satisfying des AND obs under the engine's similarity fraction
  /// (FindPairOfInterest). Row indexes; columns().Record(row).id names a
  /// row in a FOR clause.
  Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
      const Query& query, std::size_t skip = 0) const;

  /// Runs one request against a prepared query. Thread-safe and const:
  /// concurrent calls with the same arguments produce bitwise-identical
  /// responses.
  Result<ExplainResponse> Explain(const PreparedQuery& prepared,
                                  const ExplainRequest& request = {}) const;

  /// One request of a batch.
  struct BatchItem {
    const PreparedQuery* prepared = nullptr;
    ExplainRequest request;
  };

  /// Answers a batch of requests, amortizing per-pair work across the
  /// batch. Requests of one query *shape* (structurally identical bound
  /// despite/observed/expected) share one scan: one call per shape of the
  /// technique's entry point over the group's pairs of interest — the
  /// same call a per-call Explain makes with one pair:
  ///  - SimButDiff requests: SimButDiff::ExplainPrepared;
  ///  - PerfXplain requests (no auto-despite, Definition 1 holding), in
  ///    groups of two or more: Explainer::ExplainPrepared, which scans
  ///    once and builds one training matrix per (seed, pair of interest).
  ///    A lone request runs per-call.
  /// All other requests, and those carrying a deadline or CancelToken,
  /// run the per-call path. Every request is looked up in the result
  /// cache once. Results are bitwise identical to issuing the requests
  /// one-by-one; responses line up with `items`. A shared scan runs on the
  /// largest `threads` override among its group's requests, else on the
  /// engine's configured count.
  std::vector<Result<ExplainResponse>> ExplainBatch(
      const std::vector<BatchItem>& items) const;

  /// Generates only a des' clause of width `width` (0 = the engine's
  /// despite_width) for an under-specified query (§6.4).
  Result<Predicate> GenerateDespite(const PreparedQuery& prepared,
                                    std::size_t width = 0) const;

  /// Measures an explanation's metrics over this engine's log, scanning the
  /// snapshot's columnar replica with the configured explainer threads.
  Result<ExplanationMetrics> Evaluate(const PreparedQuery& prepared,
                                      const Explanation& explanation) const;

  /// Measures an explanation over a different log (e.g. the held-out test
  /// log of the §6.1 protocol), which must share this log's schema.
  Result<ExplanationMetrics> EvaluateOn(const ExecutionLog& test_log,
                                        const Query& query,
                                        const Explanation& explanation) const;

 private:
  /// The lazily built RuleOfThumb (its construction runs a full RReliefF
  /// ranking pass). std::call_once makes the first concurrent callers
  /// race-free; every later call is a plain load.
  const RuleOfThumb& rule_of_thumb() const;

  /// Rejects a PreparedQuery that was not prepared against this engine's
  /// snapshot (its compiled programs would point into another log's
  /// columns) — including default-constructed ones.
  Status CheckPrepared(const PreparedQuery& prepared) const;

  /// Binds an explanation's despite/because clauses to the snapshot's
  /// pair schema (the metrics scans compile them against its columns).
  Status BindExplanation(Explanation& explanation) const;

  /// Definition 1 under THIS engine's similarity fraction (see
  /// PreparedQuery::definition1).
  Status Definition1(const PreparedQuery& prepared) const;

  /// Admission control: estimates the request's cost against
  /// options_.limits and returns kResourceExhausted (with the estimate)
  /// when a ceiling is exceeded.
  Status AdmitRequest(const ExplainRequest& request) const;

  /// The request's deadline/cancel state as an ExecContext; empty() when
  /// the request sets neither.
  ExecContext MakeExecContext(const ExplainRequest& request) const;

  /// The engine's ExplainerOptions with the request's width/seed/threads
  /// overrides applied — the one definition the per-call path and the
  /// batch's shared scans use, so the two can never diverge on how a
  /// request maps to its width and seed. The one place a PerfXplain
  /// request's thread count is read; the Explainer itself takes
  /// EnumerationOptions.
  ExplainerOptions ExplainerOptionsFor(const ExplainRequest& request) const;

  /// Consults the result cache for (prepared, request): fills *cache_key
  /// (left empty when caching is off) and returns the finished response
  /// of a hit, whose explain_ms is the lookup itself. Explain and
  /// ExplainBatch look every request up exactly once.
  std::optional<ExplainResponse> LookUp(const PreparedQuery& prepared,
                                        const ExplainRequest& request,
                                        std::string* cache_key) const;

  /// The per-call path past the cache lookup: installs the request's
  /// ExecContext, generates the explanation and finishes the response.
  Result<ExplainResponse> Run(const PreparedQuery& prepared,
                              const ExplainRequest& request,
                              const std::string& cache_key) const;

  /// The one tail of every computed response, per-call or batched: fills
  /// `response` (timings and flags already set by the caller) with the
  /// explanation, runs the evaluate scan when the request asked for one,
  /// and caches the finished response under `cache_key`.
  Result<ExplainResponse> Finish(const PreparedQuery& prepared,
                                 const ExplainRequest& request,
                                 const std::string& cache_key,
                                 Result<Explanation> explanation,
                                 ExplainResponse response) const;

  Result<Explanation> Generate(const PreparedQuery& prepared,
                               const ExplainRequest& request) const;

  /// The ResultCache key of (prepared, request) under this engine:
  /// snapshot id prefix, the options fingerprint, technique, effective
  /// width/seed, the auto_despite/evaluate switches, the resolved pair
  /// of interest and the bound query's PXQL text. Thread counts and
  /// memory budgets are absent — observation-free by construction.
  std::string CacheKeyFor(const PreparedQuery& prepared,
                          const ExplainRequest& request) const;

  // Shared-state invariants, machine-checked where the tooling allows
  // (see common/thread_annotations.h and docs/ARCHITECTURE.md): all
  // members below are written only during construction and immutable
  // afterwards — except the call_once pair, whose publication
  // std::call_once orders. Clang Thread Safety Analysis has no
  // annotation for once_flag-guarded members, so that handoff is proved
  // by the TSan CI job (EngineTest's concurrent hammering) instead;
  // never touch rule_of_thumb_ except through rule_of_thumb().
  std::shared_ptr<const LogSnapshot> snapshot_;
  EngineOptions options_;
  /// Every result-affecting engine option, serialized once at
  /// construction into the middle segment of every cache key (see
  /// CacheKeyFor) so engines with different options sharing one cache
  /// never serve each other's results.
  std::string options_fingerprint_;
  std::shared_ptr<ResultCache> result_cache_;  ///< null = caching off
  std::unique_ptr<Explainer> explainer_;
  std::unique_ptr<SimButDiff> sim_but_diff_;
  mutable std::once_flag rule_of_thumb_once_;
  mutable std::unique_ptr<RuleOfThumb> rule_of_thumb_;  ///< via rule_of_thumb()
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_ENGINE_H_
