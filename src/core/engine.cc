#include "core/engine.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "pxql/parser.h"

namespace perfxplain {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Serializes every result-affecting field of `options` (per technique;
/// the technique itself is a separate key segment). Thread counts and
/// memory budgets (pair_code_budget_bytes, limits) are deliberately
/// omitted: they move work, never results — the bitwise-equivalence
/// suites pin that — so a result computed under one serves all.
std::string OptionsFingerprint(const EngineOptions& options) {
  const ExplainerOptions& px = options.explainer;
  const RuleOfThumbOptions& rot = options.rule_of_thumb;
  const SimButDiffOptions& sbd = options.sim_but_diff;
  std::string fp;
  fp += std::to_string(px.width) + ",";
  fp += std::to_string(px.precision_weight) + ",";
  fp += std::to_string(px.sampler.sample_size) + ",";
  fp += std::to_string(px.pair.sim_fraction) + ",";
  fp += std::to_string(static_cast<int>(px.level)) + ",";
  fp += std::to_string(px.despite_width) + ",";
  fp += std::to_string(px.despite_relevance_threshold) + ",";
  fp += std::to_string(px.max_pairs_per_record) + ",";
  fp += std::to_string(px.normalize_scores) + ",";
  fp += std::to_string(px.balanced_sampling) + ",";
  fp += std::to_string(px.seed) + ";";
  fp += std::to_string(rot.relief.iterations) + ",";
  fp += std::to_string(rot.relief.neighbors) + ",";
  fp += std::to_string(rot.pair.sim_fraction) + ",";
  fp += std::to_string(rot.seed) + ";";
  fp += std::to_string(sbd.similarity_threshold) + ",";
  fp += std::to_string(sbd.pair.sim_fraction);
  return fp;
}

/// The pair-code store's counters before a SimButDiff scan; Stamp fills a
/// response's store fields with what the scan did — the one definition
/// the per-call and the batched paths share.
class StoreTraffic {
 public:
  StoreTraffic(const PairCodeStore& store, const SimButDiffOptions& options)
      : store_(store),
        options_(options),
        builds_(store.build_count()),
        hits_(store.tile_hits()),
        misses_(store.tile_misses()) {}

  void Stamp(ExplainResponse* response) const {
    response->pair_store_built = store_.build_count() > builds_;
    response->pair_store_hit =
        store_.bytes_per_plane() <= options_.pair_code_budget_bytes &&
        store_.warm(options_.pair.sim_fraction);
    response->tile_hits = store_.tile_hits() - hits_;
    response->tile_misses = store_.tile_misses() - misses_;
  }

 private:
  const PairCodeStore& store_;
  const SimButDiffOptions& options_;
  std::uint64_t builds_;
  std::uint64_t hits_;
  std::uint64_t misses_;
};

/// The items of `indexes` grouped by query shape, in first-appearance
/// order. Queries whose three bound predicates are structurally identical
/// label every pair identically (equal predicates lower to equal
/// programs), so one scan of the shape serves the whole group.
std::vector<std::vector<std::size_t>> GroupByShape(
    const std::vector<Engine::BatchItem>& items,
    const std::vector<std::size_t>& indexes) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i : indexes) {
    const Query& bound = items[i].prepared->bound();
    std::size_t g = 0;
    for (; g < groups.size(); ++g) {
      const Query& seen = items[groups[g].front()].prepared->bound();
      if (seen.despite == bound.despite && seen.observed == bound.observed &&
          seen.expected == bound.expected) {
        break;
      }
    }
    if (g == groups.size()) groups.emplace_back();
    groups[g].push_back(i);
  }
  return groups;
}

/// The worker count of a shape group's shared scan: the largest `threads`
/// override among the group's requests (compared as resolved counts), or
/// `configured` when none overrides. The count changes no result, so the
/// group simply runs as wide as its widest request asked.
int GroupThreads(const std::vector<Engine::BatchItem>& items,
                 const std::vector<std::size_t>& group, int configured) {
  std::optional<int> widest;
  for (std::size_t i : group) {
    const std::optional<int>& threads = items[i].request.threads;
    if (threads.has_value() &&
        (!widest.has_value() ||
         ResolveThreads(*threads) > ResolveThreads(*widest))) {
      widest = threads;
    }
  }
  return widest.value_or(configured);
}

}  // namespace

namespace {
std::atomic<std::uint64_t> g_next_snapshot_id{1};
}  // namespace

std::uint64_t LogSnapshot::NextId() {
  return g_next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
}

void LogSnapshot::EnsureNextIdAfter(std::uint64_t id) {
  std::uint64_t current = g_next_snapshot_id.load(std::memory_order_relaxed);
  while (current <= id &&
         !g_next_snapshot_id.compare_exchange_weak(
             current, id + 1, std::memory_order_relaxed)) {
    // current reloaded by the failed CAS; loop until someone (us or a
    // concurrent caller) has pushed the counter past `id`.
  }
}

const char* TechniqueToString(Technique technique) {
  switch (technique) {
    case Technique::kPerfXplain:
      return "PerfXplain";
    case Technique::kRuleOfThumb:
      return "RuleOfThumb";
    case Technique::kSimButDiff:
      return "SimButDiff";
  }
  return "?";
}

Engine::Engine(const ExecutionLog& log, EngineOptions options)
    : Engine(std::make_shared<const LogSnapshot>(log), std::move(options)) {}

Engine::Engine(std::shared_ptr<const LogSnapshot> snapshot,
               EngineOptions options)
    : snapshot_(std::move(snapshot)), options_(std::move(options)) {
  PX_CHECK(snapshot_ != nullptr);
  options_fingerprint_ = OptionsFingerprint(options_);
  if (options_.result_cache != nullptr) {
    result_cache_ = options_.result_cache;
  } else if (options_.result_cache_bytes > 0) {
    result_cache_ = std::make_shared<ResultCache>(options_.result_cache_bytes);
  }
  // Every technique scans the snapshot's one columnar replica; SimButDiff
  // additionally borrows the snapshot's pair-code store so sequential
  // queries run on resident packed codes.
  explainer_ =
      std::make_unique<Explainer>(options_.explainer, &snapshot_->columns());
  sim_but_diff_ = std::make_unique<SimButDiff>(
      options_.sim_but_diff, &snapshot_->columns(), &snapshot_->pair_codes());
}

const RuleOfThumb& Engine::rule_of_thumb() const {
  std::call_once(rule_of_thumb_once_, [this] {
    rule_of_thumb_ = std::make_unique<RuleOfThumb>(options_.rule_of_thumb,
                                                   &snapshot_->columns());
  });
  return *rule_of_thumb_;
}

Result<PreparedQuery> Engine::Prepare(const Query& query) const {
  PreparedQuery prepared;
  prepared.snapshot_ = snapshot_;
  prepared.bound_ = query;
  Query& bound = prepared.bound_;
  PX_RETURN_IF_ERROR(bound.Bind(snapshot_->pair_schema()));
  PX_RETURN_IF_ERROR(bound.Validate());
  if (bound.first_id.empty() || bound.second_id.empty()) {
    return Status::InvalidArgument(
        "query must identify the pair of interest (FOR ... WHERE)");
  }
  auto first = snapshot_->columns().Find(bound.first_id);
  if (!first.ok()) return first.status();
  auto second = snapshot_->columns().Find(bound.second_id);
  if (!second.ok()) return second.status();
  prepared.poi_first_ = first.value();
  prepared.poi_second_ = second.value();
  prepared.compiled_ = CompiledQuery::Compile(
      bound, snapshot_->pair_schema(), snapshot_->columns());
  prepared.definition1_ =
      CheckDefinition1(prepared.compiled_, prepared.poi_first_,
                       prepared.poi_second_,
                       options_.explainer.pair.sim_fraction);
  return prepared;
}

Result<PreparedQuery> Engine::PrepareText(const std::string& pxql) const {
  auto query = ParseQuery(pxql);
  if (!query.ok()) return query.status();
  return Prepare(query.value());
}

Result<std::pair<std::size_t, std::size_t>> Engine::FindPairOfInterest(
    const Query& query, std::size_t skip) const {
  Query bound = query;
  PX_RETURN_IF_ERROR(bound.Bind(snapshot_->pair_schema()));
  return perfxplain::FindPairOfInterest(
      snapshot_->columns(),
      CompiledQuery::Compile(bound, snapshot_->pair_schema(),
                             snapshot_->columns()),
      options_.explainer.pair.sim_fraction, skip);
}

Status Engine::Definition1(const PreparedQuery& prepared) const {
  // Re-derived under THIS engine's similarity fraction rather than read
  // from the recorded status: engines sharing a snapshot may run different
  // options, and the check costs three program evaluations on one pair.
  return CheckDefinition1(prepared.compiled(), prepared.poi_first(),
                          prepared.poi_second(),
                          options_.explainer.pair.sim_fraction);
}

ExplainerOptions Engine::ExplainerOptionsFor(
    const ExplainRequest& request) const {
  ExplainerOptions options = options_.explainer;
  if (request.width > 0) options.width = request.width;
  if (request.seed.has_value()) options.seed = *request.seed;
  if (request.threads.has_value()) options.threads = *request.threads;
  return options;
}

Result<ExplainResponse> Engine::Finish(const PreparedQuery& prepared,
                                       const ExplainRequest& request,
                                       const std::string& cache_key,
                                       Result<Explanation> explanation,
                                       ExplainResponse response) const {
  if (!explanation.ok()) return explanation.status();
  response.technique = request.technique;
  response.snapshot_id = snapshot_->id();
  response.explanation = std::move(explanation).value();
  if (request.evaluate) {
    const Clock::time_point start = Clock::now();
    auto metrics = Evaluate(prepared, response.explanation);
    if (!metrics.ok()) return metrics.status();
    response.metrics = metrics.value();
    response.evaluate_ms = MsSince(start);
  }
  // Only a fully successful response reaches this Put: every failure —
  // including a cancel or deadline firing mid-scan — returned earlier, so
  // a partial result is never cached.
  if (result_cache_ != nullptr) {
    result_cache_->Put(cache_key, ResultCache::Value{response.explanation,
                                                     response.metrics});
  }
  return response;
}

Result<Explanation> Engine::Generate(const PreparedQuery& prepared,
                                     const ExplainRequest& request) const {
  const std::size_t width =
      request.width > 0 ? request.width : options_.explainer.width;
  switch (request.technique) {
    case Technique::kPerfXplain: {
      PX_RETURN_IF_ERROR(Definition1(prepared));
      const ExplainerOptions options = ExplainerOptionsFor(request);
      const EnumerationOptions enumeration{options.threads};
      if (request.auto_despite) {
        return explainer_->ExplainWithAutoDespitePrepared(
            prepared.bound(), prepared.compiled(), prepared.poi_first(),
            prepared.poi_second(), options, enumeration);
      }
      std::vector<Result<Explanation>> results = explainer_->ExplainPrepared(
          prepared.bound(), prepared.compiled(),
          {{prepared.poi_first(), prepared.poi_second(), options.width,
            options.seed}},
          options, enumeration);
      return std::move(results.front());
    }
    case Technique::kRuleOfThumb:
      return rule_of_thumb().ExplainPrepared(prepared.bound(),
                                             prepared.poi_first(),
                                             prepared.poi_second(), width);
    case Technique::kSimButDiff: {
      std::vector<Result<Explanation>> results =
          sim_but_diff_->ExplainPrepared(
              prepared.bound(), prepared.compiled(),
              {{prepared.poi_first(), prepared.poi_second(), width}},
              EnumerationOptions{
                  request.threads.value_or(options_.sim_but_diff.threads)});
      return std::move(results.front());
    }
  }
  return Status::InvalidArgument("unknown technique");
}

std::string Engine::CacheKeyFor(const PreparedQuery& prepared,
                                const ExplainRequest& request) const {
  const std::size_t width =
      request.width > 0 ? request.width : options_.explainer.width;
  const std::uint64_t seed =
      request.seed.value_or(options_.explainer.seed);
  std::string key = ResultCache::SnapshotPrefix(snapshot_->id());
  key += options_fingerprint_;
  key += "|";
  key += TechniqueToString(request.technique);
  key += "|";
  key += std::to_string(width);
  key += "|";
  key += request.auto_despite ? "d1" : "d0";
  key += request.evaluate ? "e1" : "e0";
  key += "|";
  key += std::to_string(seed);
  key += "|";
  key += std::to_string(prepared.poi_first());
  key += ",";
  key += std::to_string(prepared.poi_second());
  key += "|";
  key += prepared.bound().ToString();
  return key;
}

Status Engine::CheckPrepared(const PreparedQuery& prepared) const {
  if (prepared.snapshot_ != snapshot_) {
    return Status::InvalidArgument(
        "PreparedQuery was not prepared against this engine's snapshot");
  }
  return Status::OK();
}

Status Engine::AdmitRequest(const ExplainRequest& request) const {
  const EngineLimits& limits = options_.limits;
  const std::size_t n = snapshot_->columns().rows();
  if (limits.max_candidate_pairs > 0) {
    const std::size_t pairs = n > 1 ? n * (n - 1) : 0;
    if (pairs > limits.max_candidate_pairs) {
      return Status::ResourceExhausted(
          "request rejected: estimated " + std::to_string(pairs) +
          " candidate ordered pairs exceeds max_candidate_pairs = " +
          std::to_string(limits.max_candidate_pairs));
    }
  }
  if (limits.max_pair_store_bytes > 0 &&
      request.technique == Technique::kSimButDiff) {
    // Charged per-frame: the plane when the engine's budget lets it
    // build, otherwise the tile-pool frames the budget buys; a request
    // that streams outright costs no store bytes.
    const std::size_t bytes = snapshot_->pair_codes().ResidentBytesFor(
        options_.sim_but_diff.pair_code_budget_bytes);
    if (bytes > limits.max_pair_store_bytes) {
      return Status::ResourceExhausted(
          "request rejected: estimated resident pair-store bytes of " +
          std::to_string(bytes) + " exceeds max_pair_store_bytes = " +
          std::to_string(limits.max_pair_store_bytes));
    }
  }
  if (limits.max_training_cells > 0 &&
      request.technique == Technique::kPerfXplain) {
    const std::size_t cells =
        (options_.explainer.sampler.sample_size + 1) *
        snapshot_->pair_schema().size();
    if (cells > limits.max_training_cells) {
      return Status::ResourceExhausted(
          "request rejected: estimated training matrix of " +
          std::to_string(cells) + " cells exceeds max_training_cells = " +
          std::to_string(limits.max_training_cells));
    }
  }
  return Status::OK();
}

ExecContext Engine::MakeExecContext(const ExplainRequest& request) const {
  ExecContext context;
  context.cancel = request.cancel;
  if (request.deadline_ms > 0) {
    context.deadline =
        Clock::now() + std::chrono::milliseconds(request.deadline_ms);
  }
  return context;
}

std::optional<ExplainResponse> Engine::LookUp(const PreparedQuery& prepared,
                                              const ExplainRequest& request,
                                              std::string* cache_key) const {
  if (result_cache_ == nullptr) return std::nullopt;
  const Clock::time_point lookup_start = Clock::now();
  *cache_key = CacheKeyFor(prepared, request);
  auto cached = result_cache_->Get(*cache_key);
  if (!cached.has_value()) return std::nullopt;
  ExplainResponse response;
  response.technique = request.technique;
  response.snapshot_id = snapshot_->id();
  response.explanation = std::move(cached->explanation);
  response.metrics = std::move(cached->metrics);
  response.explain_ms = MsSince(lookup_start);
  response.result_cache_hit = true;
  return response;
}

Result<ExplainResponse> Engine::Explain(const PreparedQuery& prepared,
                                        const ExplainRequest& request) const {
  PX_RETURN_IF_ERROR(CheckPrepared(prepared));
  PX_RETURN_IF_ERROR(AdmitRequest(request));
  std::string cache_key;
  if (auto cached = LookUp(prepared, request, &cache_key)) return *cached;
  return Run(prepared, request, cache_key);
}

Result<ExplainResponse> Engine::Run(const PreparedQuery& prepared,
                                    const ExplainRequest& request,
                                    const std::string& cache_key) const {
  const ExecContext exec_context = MakeExecContext(request);
  ScopedExecContext scoped(exec_context.empty() ? nullptr : &exec_context);
  try {
    std::optional<StoreTraffic> traffic;
    if (request.technique == Technique::kSimButDiff) {
      traffic.emplace(snapshot_->pair_codes(), options_.sim_but_diff);
    }
    const Clock::time_point start = Clock::now();
    auto explanation = Generate(prepared, request);
    ExplainResponse response;
    response.explain_ms = MsSince(start);
    if (traffic.has_value()) traffic->Stamp(&response);
    return Finish(prepared, request, cache_key, std::move(explanation),
                  std::move(response));
  } catch (const InterruptedError& interrupted) {
    // A checkpoint fired mid-scan (or mid-fill): every worker has joined
    // and any tile caught mid-build was freed, so the shared snapshot
    // keeps serving untouched.
    return interrupted.status();
  }
}

std::vector<Result<ExplainResponse>> Engine::ExplainBatch(
    const std::vector<BatchItem>& items) const {
  std::vector<Result<ExplainResponse>> responses;
  responses.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    responses.push_back(Status::Internal("batch item not answered"));
  }
  // Items answered below; everything else runs through the per-call path
  // at the bottom, with the cache key of its one lookup.
  std::vector<bool> handled(items.size(), false);
  std::vector<std::string> cache_keys(items.size());
  std::vector<std::size_t> sim_but_diff_items;
  std::vector<std::size_t> perfxplain_items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    Status admitted = item.prepared == nullptr
                          ? Status::InvalidArgument("batch item has no query")
                          : CheckPrepared(*item.prepared);
    if (admitted.ok()) admitted = AdmitRequest(item.request);
    if (!admitted.ok()) {
      responses[i] = admitted;
      handled[i] = true;
      continue;
    }
    // Cached items leave the batch before grouping, so a hit is answered
    // without joining (or triggering) any shared scan.
    if (auto cached = LookUp(*item.prepared, item.request, &cache_keys[i])) {
      responses[i] = *std::move(cached);
      handled[i] = true;
      continue;
    }
    // Requests carrying a deadline or CancelToken run per-call (Run
    // installs their ExecContext); a shared scan has no single request
    // whose interruption state could govern it.
    if (item.request.deadline_ms > 0 || item.request.cancel != nullptr) {
      continue;
    }
    if (item.request.technique == Technique::kSimButDiff) {
      sim_but_diff_items.push_back(i);
    } else if (item.request.technique == Technique::kPerfXplain &&
               !item.request.auto_despite &&
               Definition1(*item.prepared).ok()) {
      // Auto-despite rewrites the shape mid-flight, and a Definition 1
      // failure is the per-call path's status, so both run per-call.
      perfxplain_items.push_back(i);
    }
  }

  // Finishes a shape group answered by one call of its technique's entry
  // point: the call's time (and tile traffic) is shared, not attributable
  // per item, so every response of the group starts from `shared`.
  const auto finish_group = [&](const std::vector<std::size_t>& group,
                                Clock::time_point start,
                                std::vector<Result<Explanation>> results,
                                ExplainResponse shared) {
    shared.explain_ms = MsSince(start) / static_cast<double>(group.size());
    shared.batched = true;
    for (std::size_t g = 0; g < group.size(); ++g) {
      const std::size_t i = group[g];
      handled[i] = true;
      responses[i] = Finish(*items[i].prepared, items[i].request,
                            cache_keys[i], std::move(results[g]), shared);
    }
  };

  // The batch's SimButDiff requests of one query shape share one scan
  // (SimButDiff::ExplainPrepared over the group's pairs of interest).
  for (const std::vector<std::size_t>& group :
       GroupByShape(items, sim_but_diff_items)) {
    const PreparedQuery& representative = *items[group.front()].prepared;
    std::vector<SimButDiff::PairOfInterest> pois;
    for (std::size_t i : group) {
      const BatchItem& item = items[i];
      pois.push_back({item.prepared->poi_first(), item.prepared->poi_second(),
                      ExplainerOptionsFor(item.request).width});
    }
    const StoreTraffic traffic(snapshot_->pair_codes(),
                               options_.sim_but_diff);
    const Clock::time_point start = Clock::now();
    std::vector<Result<Explanation>> results = sim_but_diff_->ExplainPrepared(
        representative.bound(), representative.compiled(), pois,
        EnumerationOptions{
            GroupThreads(items, group, options_.sim_but_diff.threads)});
    ExplainResponse shared;
    traffic.Stamp(&shared);
    finish_group(group, start, std::move(results), std::move(shared));
  }

  // The batch's PerfXplain requests of one query shape share one
  // related-pair scan (Explainer::ExplainPrepared over the group's pairs
  // of interest). A lone request runs per-call, through the same entry
  // point, and is not marked batched.
  for (const std::vector<std::size_t>& group :
       GroupByShape(items, perfxplain_items)) {
    if (group.size() < 2) continue;
    const PreparedQuery& representative = *items[group.front()].prepared;
    std::vector<Explainer::PairOfInterest> pois;
    for (std::size_t i : group) {
      const BatchItem& item = items[i];
      const ExplainerOptions options = ExplainerOptionsFor(item.request);
      pois.push_back({item.prepared->poi_first(), item.prepared->poi_second(),
                      options.width, options.seed});
    }
    const Clock::time_point start = Clock::now();
    std::vector<Result<Explanation>> results = explainer_->ExplainPrepared(
        representative.bound(), representative.compiled(), pois,
        options_.explainer,
        EnumerationOptions{
            GroupThreads(items, group, options_.explainer.threads)});
    finish_group(group, start, std::move(results), ExplainResponse());
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!handled[i]) {
      responses[i] = Run(*items[i].prepared, items[i].request, cache_keys[i]);
    }
  }
  return responses;
}

Result<Predicate> Engine::GenerateDespite(const PreparedQuery& prepared,
                                          std::size_t width) const {
  PX_RETURN_IF_ERROR(CheckPrepared(prepared));
  PX_RETURN_IF_ERROR(Definition1(prepared));
  return explainer_->GenerateDespitePrepared(
      prepared.bound(), prepared.compiled(), prepared.poi_first(),
      prepared.poi_second(),
      width > 0 ? width : options_.explainer.despite_width,
      options_.explainer, EnumerationOptions{options_.explainer.threads});
}

Result<ExplanationMetrics> Engine::Evaluate(
    const PreparedQuery& prepared, const Explanation& explanation) const {
  PX_RETURN_IF_ERROR(CheckPrepared(prepared));
  Explanation bound_explanation = explanation;
  PX_RETURN_IF_ERROR(BindExplanation(bound_explanation));
  // The snapshot's own replica, scanned with the configured threads.
  return EvaluateExplanation(snapshot_->columns(), snapshot_->pair_schema(),
                             prepared.bound(), bound_explanation,
                             options_.explainer.pair,
                             EnumerationOptions{options_.explainer.threads});
}

Result<ExplanationMetrics> Engine::EvaluateOn(
    const ExecutionLog& test_log, const Query& query,
    const Explanation& explanation) const {
  if (!(test_log.schema() == snapshot_->columns().schema())) {
    return Status::InvalidArgument("test log schema differs from training");
  }
  Query bound = query;
  PX_RETURN_IF_ERROR(bound.Bind(snapshot_->pair_schema()));
  Explanation bound_explanation = explanation;
  PX_RETURN_IF_ERROR(BindExplanation(bound_explanation));
  return EvaluateExplanation(test_log, snapshot_->pair_schema(), bound,
                             bound_explanation, options_.explainer.pair,
                             EnumerationOptions{options_.explainer.threads});
}

Status Engine::BindExplanation(Explanation& explanation) const {
  PX_RETURN_IF_ERROR(explanation.despite.Bind(snapshot_->pair_schema()));
  return explanation.because.Bind(snapshot_->pair_schema());
}

}  // namespace perfxplain
