// The Engine/PreparedQuery service API: prepared queries are reusable and
// deterministic, per-request overrides behave, Definition 1 is enforced
// per technique, ExplainBatch is bitwise identical to per-call Explain,
// and — the concurrency contract — N threads hammering one shared Engine
// with mixed techniques produce results bitwise identical to the serial
// run (run under ThreadSanitizer in CI).

#include "core/engine.h"

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/pair_enumeration.h"
#include "reference/reference.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using perfxplain::testing::CausalLog;
using perfxplain::testing::GtVsSimQuery;
using perfxplain::testing::PickPair;

/// Bitwise explanation equality: same atoms in both clauses and exactly
/// equal per-atom scores.
::testing::AssertionResult SameExplanation(const Explanation& actual,
                                           const Explanation& expected) {
  if (!(actual.because == expected.because)) {
    return ::testing::AssertionFailure()
           << "because: " << actual.because.ToString() << " vs "
           << expected.because.ToString();
  }
  if (!(actual.despite == expected.despite)) {
    return ::testing::AssertionFailure()
           << "despite: " << actual.despite.ToString() << " vs "
           << expected.despite.ToString();
  }
  if (actual.because_trace.size() != expected.because_trace.size()) {
    return ::testing::AssertionFailure() << "trace size differs";
  }
  for (std::size_t a = 0; a < expected.because_trace.size(); ++a) {
    if (actual.because_trace[a].score != expected.because_trace[a].score) {
      return ::testing::AssertionFailure()
             << "score of atom " << a << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Same ok-ness and either same status code or bitwise-same explanation.
::testing::AssertionResult SameOutcome(
    const Result<ExplainResponse>& actual,
    const Result<ExplainResponse>& expected) {
  if (actual.ok() != expected.ok()) {
    return ::testing::AssertionFailure()
           << "ok mismatch: "
           << (actual.ok() ? expected.status().ToString()
                           : actual.status().ToString());
  }
  if (!expected.ok()) {
    if (actual.status().code() != expected.status().code()) {
      return ::testing::AssertionFailure()
             << actual.status().ToString() << " vs "
             << expected.status().ToString();
    }
    return ::testing::AssertionSuccess();
  }
  return SameExplanation(actual->explanation, expected->explanation);
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : log_(CausalLog(100, 55)), engine_(log_, SerialOptions()) {}

  static EngineOptions SerialOptions() {
    // Inner scans run single-threaded so the concurrency tests exercise
    // the Engine's outer thread-safety, not the scans' worker pools.
    EngineOptions options;
    options.explainer.threads = 1;
    options.sim_but_diff.threads = 1;
    options.rule_of_thumb.relief.threads = 1;
    return options;
  }

  Query MakeQuery(std::size_t skip = 0,
                  const std::string& despite_text = "") {
    Query query = GtVsSimQuery(despite_text);
    PX_CHECK(PickPair(log_, query, skip));
    return query;
  }

  ExecutionLog log_;
  Engine engine_;
};

TEST_F(EngineTest, PreparedQueryReuseIsDeterministic) {
  auto prepared = engine_.Prepare(MakeQuery());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared->definition1().ok());

  auto first = engine_.Explain(*prepared);
  auto second = engine_.Explain(*prepared);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(SameExplanation(second->explanation, first->explanation));
  EXPECT_GE(first->explanation.because.width(), 1u);
}

TEST_F(EngineTest, PrepareTextMatchesPrepare) {
  const Query query = MakeQuery();
  const std::string text =
      "FOR J1, J2 WHERE J1.JobID = '" + query.first_id +
      "' AND J2.JobID = '" + query.second_id +
      "' OBSERVED duration_compare = GT EXPECTED duration_compare = SIM";
  auto from_text = engine_.PrepareText(text);
  auto from_query = engine_.Prepare(query);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_TRUE(from_query.ok());
  auto a = engine_.Explain(*from_text);
  auto b = engine_.Explain(*from_query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameExplanation(a->explanation, b->explanation));
}

TEST_F(EngineTest, RequestOverridesApply) {
  auto prepared = engine_.Prepare(MakeQuery());
  ASSERT_TRUE(prepared.ok());

  ExplainRequest narrow;
  narrow.width = 1;
  auto narrow_response = engine_.Explain(*prepared, narrow);
  ASSERT_TRUE(narrow_response.ok());
  EXPECT_EQ(narrow_response->explanation.because.width(), 1u);

  // A seed override changes the sampling draw sequence but stays
  // deterministic: same seed, same explanation.
  ExplainRequest seeded;
  seeded.seed = 12345;
  auto seeded_a = engine_.Explain(*prepared, seeded);
  auto seeded_b = engine_.Explain(*prepared, seeded);
  ASSERT_TRUE(seeded_a.ok());
  ASSERT_TRUE(seeded_b.ok());
  EXPECT_TRUE(SameExplanation(seeded_b->explanation, seeded_a->explanation));

  // Thread-count overrides are observation-free.
  ExplainRequest threaded;
  threaded.threads = 3;
  auto threaded_response = engine_.Explain(*prepared, threaded);
  auto serial_response = engine_.Explain(*prepared);
  ASSERT_TRUE(threaded_response.ok());
  ASSERT_TRUE(serial_response.ok());
  EXPECT_TRUE(SameExplanation(threaded_response->explanation,
                              serial_response->explanation));

  // evaluate=true fills metrics and the evaluation timing.
  ExplainRequest evaluated;
  evaluated.evaluate = true;
  auto evaluated_response = engine_.Explain(*prepared, evaluated);
  ASSERT_TRUE(evaluated_response.ok());
  ASSERT_TRUE(evaluated_response->metrics.has_value());
  EXPECT_GT(evaluated_response->metrics->precision, 0.0);
}

TEST_F(EngineTest, PrepareRejectsBadQueries) {
  // Parse errors surface from PrepareText.
  EXPECT_EQ(engine_.PrepareText("OBSERVED oops").status().code(),
            StatusCode::kParseError);

  // Unknown record ids fail at Prepare.
  Query unknown = GtVsSimQuery();
  unknown.first_id = "missing";
  unknown.second_id = "gone";
  EXPECT_FALSE(engine_.Prepare(unknown).ok());

  // A pair-less query fails at Prepare.
  EXPECT_FALSE(engine_.Prepare(GtVsSimQuery()).ok());
}

TEST_F(EngineTest, FindPairOfInterestMatchesReference) {
  // The query names no pair and is not bound: the engine binds a copy.
  for (const std::size_t skip : {0, 1, 7, 1000000}) {
    auto found = engine_.FindPairOfInterest(GtVsSimQuery(), skip);
    auto expected = reference::FindPairOfInterest(log_, GtVsSimQuery(), skip);
    ASSERT_EQ(found.ok(), expected.ok()) << "skip " << skip;
    if (expected.ok()) {
      EXPECT_EQ(*found, *expected) << "skip " << skip;
    } else {
      EXPECT_EQ(found.status().code(), expected.status().code());
    }
  }
  Query unbindable = GtVsSimQuery("no_such_feature_isSame = T");
  EXPECT_FALSE(engine_.FindPairOfInterest(unbindable).ok());
}

TEST_F(EngineTest, RejectsForeignPreparedQueries) {
  // A PreparedQuery's compiled programs point into the snapshot it was
  // prepared against; another engine must reject it instead of scanning
  // foreign columns. Default-constructed handles are rejected the same
  // way.
  const Engine other(CausalLog(60, 99), SerialOptions());
  auto foreign = other.Prepare([&] {
    Query query = GtVsSimQuery();
    PX_CHECK(PickPair(other.log(), query));
    return query;
  }());
  ASSERT_TRUE(foreign.ok());

  EXPECT_EQ(engine_.Explain(*foreign).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.GenerateDespite(*foreign).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.Evaluate(*foreign, Explanation{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.Explain(PreparedQuery{}).status().code(),
            StatusCode::kInvalidArgument);

  ExplainRequest sim_but_diff;
  sim_but_diff.technique = Technique::kSimButDiff;
  auto own = engine_.Prepare(MakeQuery());
  ASSERT_TRUE(own.ok());
  const std::vector<Result<ExplainResponse>> batch = engine_.ExplainBatch(
      {Engine::BatchItem{&*foreign, sim_but_diff},
       Engine::BatchItem{&*own, sim_but_diff},
       Engine::BatchItem{&*own, sim_but_diff}});
  EXPECT_EQ(batch[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[1].ok());
  EXPECT_TRUE(batch[2].ok());
}

TEST_F(EngineTest, Definition1EnforcedPerTechnique) {
  // Swapping the pair of interest flips duration_compare from GT to LT,
  // so the query's OBSERVED clause no longer holds: Definition 1 fails.
  Query query = MakeQuery();
  std::swap(query.first_id, query.second_id);
  auto prepared = engine_.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_FALSE(prepared->definition1().ok());

  // The PerfXplain technique enforces Definition 1 ...
  auto perfxplain_response = engine_.Explain(*prepared);
  ASSERT_FALSE(perfxplain_response.ok());
  EXPECT_EQ(perfxplain_response.status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(engine_.GenerateDespite(*prepared).ok());

  // ... while the baselines answer such queries, as they always did.
  ExplainRequest rule_of_thumb;
  rule_of_thumb.technique = Technique::kRuleOfThumb;
  EXPECT_TRUE(engine_.Explain(*prepared, rule_of_thumb).ok());
}

TEST_F(EngineTest, Definition1ReDerivedUnderExecutingEngineOptions) {
  // Engines sharing a snapshot may run different similarity fractions;
  // the PerfXplain technique must enforce Definition 1 under the
  // EXECUTING engine's options, not the status recorded at Prepare time.
  auto prepared = engine_.Prepare(MakeQuery());
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->definition1().ok());

  // At sim_fraction 0.9 every CausalLog duration pair compares SIM, so
  // the query's OBSERVED duration_compare = GT no longer holds for the
  // pair of interest: Definition 1 fails on the looser engine even
  // though the recorded status is OK.
  EngineOptions loose = SerialOptions();
  loose.explainer.pair.sim_fraction = 0.9;
  const Engine other(engine_.snapshot(), loose);
  auto response = other.Explain(*prepared);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, SharedSnapshotAcrossEngines) {
  // A second engine over the same snapshot shares the log and columns
  // (no rebuild) and produces bitwise-identical explanations; a
  // PreparedQuery carries the snapshot, so it outlives either engine.
  const Engine other(engine_.snapshot(), SerialOptions());
  EXPECT_EQ(&other.snapshot()->columns(), &engine_.snapshot()->columns());

  auto prepared = engine_.Prepare(MakeQuery());
  ASSERT_TRUE(prepared.ok());
  auto mine = engine_.Explain(*prepared);
  auto theirs = other.Explain(*prepared);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(theirs.ok());
  EXPECT_TRUE(SameExplanation(theirs->explanation, mine->explanation));
}

TEST_F(EngineTest, ExplainBatchMatchesPerCall) {
  // A batch mixing query shapes (two classification groups), widths, an
  // always-false despite (FailedPrecondition on both paths) and the
  // non-SimButDiff techniques must reproduce per-call results bitwise.
  std::vector<Query> queries;
  queries.push_back(MakeQuery(0));
  queries.push_back(MakeQuery(7));
  queries.push_back(MakeQuery(0, "decoy_c_isSame = T"));
  queries.push_back(MakeQuery(13));
  Query impossible = GtVsSimQuery("decoy_c_isSame = X");
  impossible.first_id = log_.at(0).id;
  impossible.second_id = log_.at(1).id;
  queries.push_back(impossible);

  std::vector<PreparedQuery> prepared;
  for (const Query& query : queries) {
    auto one = engine_.Prepare(query);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    prepared.push_back(std::move(one).value());
  }

  std::vector<Engine::BatchItem> items;
  for (std::size_t q = 0; q < prepared.size(); ++q) {
    ExplainRequest request;
    request.technique = Technique::kSimButDiff;
    request.width = 1 + q % 3;
    items.push_back(Engine::BatchItem{&prepared[q], request});
  }
  // Mixed-technique tail: routed through the per-call path inside the
  // batch, still answered in line.
  ExplainRequest perfxplain_request;
  perfxplain_request.technique = Technique::kPerfXplain;
  items.push_back(Engine::BatchItem{&prepared[0], perfxplain_request});
  ExplainRequest rule_of_thumb_request;
  rule_of_thumb_request.technique = Technique::kRuleOfThumb;
  items.push_back(Engine::BatchItem{&prepared[1], rule_of_thumb_request});

  const std::vector<Result<ExplainResponse>> batch =
      engine_.ExplainBatch(items);
  ASSERT_EQ(batch.size(), items.size());
  std::size_t produced = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Result<ExplainResponse> per_call =
        engine_.Explain(*items[i].prepared, items[i].request);
    EXPECT_TRUE(SameOutcome(batch[i], per_call)) << "item " << i;
    if (batch[i].ok()) {
      ++produced;
      if (items[i].request.technique == Technique::kSimButDiff) {
        EXPECT_TRUE(batch[i]->batched) << "item " << i;
      }
    }
  }
  // The equivalence must exercise real explanations, not just failures.
  EXPECT_GE(produced, 5u);
}

TEST_F(EngineTest, ExplainBatchSharesPerfXplainClassificationPass) {
  // Three PerfXplain requests of one query shape (different pairs of
  // interest, widths and seeds) share one related-pair classification
  // scan; a request of another shape and an auto-despite request (whose
  // pipeline rewrites the shape mid-flight) run per-call. Everything must
  // be bitwise identical to per-call Explain.
  std::vector<Query> queries;
  queries.push_back(MakeQuery(0));
  queries.push_back(MakeQuery(7));
  queries.push_back(MakeQuery(13));
  queries.push_back(MakeQuery(0, "decoy_c_isSame = T"));  // other shape
  std::vector<PreparedQuery> prepared;
  for (const Query& query : queries) {
    auto one = engine_.Prepare(query);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    prepared.push_back(std::move(one).value());
  }

  std::vector<Engine::BatchItem> items;
  for (std::size_t q = 0; q < 3; ++q) {
    ExplainRequest request;
    request.technique = Technique::kPerfXplain;
    request.width = 1 + q;
    if (q == 1) request.seed = 123;
    items.push_back(Engine::BatchItem{&prepared[q], request});
  }
  ExplainRequest other_shape;
  other_shape.technique = Technique::kPerfXplain;
  items.push_back(Engine::BatchItem{&prepared[3], other_shape});
  ExplainRequest auto_despite;
  auto_despite.technique = Technique::kPerfXplain;
  auto_despite.auto_despite = true;
  items.push_back(Engine::BatchItem{&prepared[0], auto_despite});

  const std::vector<Result<ExplainResponse>> batch =
      engine_.ExplainBatch(items);
  ASSERT_EQ(batch.size(), items.size());
  std::size_t produced = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Result<ExplainResponse> per_call =
        engine_.Explain(*items[i].prepared, items[i].request);
    EXPECT_TRUE(SameOutcome(batch[i], per_call)) << "item " << i;
    if (batch[i].ok()) ++produced;
  }
  // The three same-shape requests came from the shared scan; the lone
  // shape and the auto-despite request did not.
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    EXPECT_TRUE(batch[i]->batched) << "item " << i;
  }
  for (std::size_t i = 3; i < items.size(); ++i) {
    if (batch[i].ok()) {
      EXPECT_FALSE(batch[i]->batched) << "item " << i;
    }
  }
  EXPECT_GE(produced, 4u);
}

TEST_F(EngineTest, ExplainBatchThreadCountIsObservationFree) {
  std::vector<PreparedQuery> prepared;
  for (std::size_t skip : {0u, 7u, 13u}) {
    auto one = engine_.Prepare(MakeQuery(skip));
    ASSERT_TRUE(one.ok());
    prepared.push_back(std::move(one).value());
  }
  ExplainRequest request;
  request.technique = Technique::kSimButDiff;
  std::vector<Engine::BatchItem> items;
  for (const PreparedQuery& one : prepared) {
    items.push_back(Engine::BatchItem{&one, request});
  }
  const std::vector<Result<ExplainResponse>> serial =
      engine_.ExplainBatch(items);

  EngineOptions threaded_options = SerialOptions();
  threaded_options.sim_but_diff.threads = 3;
  const Engine threaded(engine_.snapshot(), threaded_options);
  const std::vector<Result<ExplainResponse>> parallel =
      threaded.ExplainBatch(items);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(SameOutcome(parallel[i], serial[i])) << "item " << i;
  }
}

TEST_F(EngineTest, ExplainerGroupMatchesRequestsRunAlone) {
  // Explainer::ExplainPrepared over randomized groups of (pair of
  // interest, width, seed) — duplicate pairs, shared and distinct seeds —
  // must answer every request bitwise as the same request alone, for
  // every buffer cap (0 and 1 overflow the scan, so the group's draws
  // stream) and thread count. A small sample makes the draws, and so the
  // explanations, depend on the seed.
  EngineOptions options = SerialOptions();
  options.explainer.sampler.sample_size = 40;
  const Engine engine(engine_.snapshot(), options);
  const Explainer& explainer = engine.explainer();
  auto prepared = engine.Prepare(MakeQuery());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const CompiledQuery& compiled = prepared->compiled();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t skip : {0u, 7u, 13u, 21u}) {
    auto poi = FindPairOfInterest(engine.snapshot()->columns(), compiled,
                                  options.explainer.pair.sim_fraction, skip);
    ASSERT_TRUE(poi.ok()) << poi.status().ToString();
    pairs.push_back(*poi);
  }

  // Bitwise: same clauses and every per-atom diagnostic exactly equal.
  const auto same = [](const Result<Explanation>& actual,
                       const Result<Explanation>& expected)
      -> ::testing::AssertionResult {
    if (actual.ok() != expected.ok()) {
      return ::testing::AssertionFailure() << "ok-ness differs";
    }
    if (!expected.ok()) {
      return actual.status().code() == expected.status().code()
                 ? ::testing::AssertionSuccess()
                 : ::testing::AssertionFailure() << "status differs";
    }
    const std::vector<ExplanationAtom>& a = actual->because_trace;
    const std::vector<ExplanationAtom>& b = expected->because_trace;
    if (a.size() != b.size()) {
      return ::testing::AssertionFailure() << "trace size differs";
    }
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (!(a[k].atom == b[k].atom) || a[k].score != b[k].score ||
          a[k].info_gain != b[k].info_gain ||
          a[k].metric_after != b[k].metric_after ||
          a[k].generality_after != b[k].generality_after) {
        return ::testing::AssertionFailure()
               << "atom " << k << ": " << a[k].atom.ToString() << " vs "
               << b[k].atom.ToString();
      }
    }
    return ::testing::AssertionSuccess();
  };

  std::mt19937_64 rng(20261018);
  const std::vector<std::uint64_t> seeds = {17, 5, 99};
  std::vector<std::vector<Explainer::PairOfInterest>> groups;
  for (int g = 0; g < 6; ++g) {
    std::vector<Explainer::PairOfInterest> group;
    const std::size_t size = 2 + rng() % 5;
    for (std::size_t r = 0; r < size; ++r) {
      const auto& poi = pairs[rng() % pairs.size()];
      group.push_back({poi.first, poi.second, 1 + rng() % 3,
                       seeds[rng() % seeds.size()]});
    }
    // Always a duplicate pair with the same seed and a duplicate pair
    // with another seed.
    Explainer::PairOfInterest twin = group.front();
    twin.width = 1 + twin.width % 3;
    group.push_back(twin);
    twin.seed = twin.seed == seeds[0] ? seeds[1] : seeds[0];
    group.push_back(twin);
    groups.push_back(std::move(group));
  }

  std::size_t produced = 0;
  std::size_t seed_sensitive = 0;
  for (std::size_t cap :
       {std::size_t{0}, std::size_t{1}, EnumerationOptions().sample_buffer_cap}) {
    for (int threads : {1, 3}) {
      EnumerationOptions enumeration;
      enumeration.threads = threads;
      enumeration.sample_buffer_cap = cap;
      for (const std::vector<Explainer::PairOfInterest>& group : groups) {
        const std::vector<Result<Explanation>> together =
            explainer.ExplainPrepared(prepared->bound(), compiled, group,
                                      options.explainer, enumeration);
        ASSERT_EQ(together.size(), group.size());
        for (std::size_t r = 0; r < group.size(); ++r) {
          const std::vector<Result<Explanation>> alone =
              explainer.ExplainPrepared(prepared->bound(), compiled,
                                        {group[r]}, options.explainer,
                                        enumeration);
          ASSERT_EQ(alone.size(), 1u);
          EXPECT_TRUE(same(together[r], alone.front()))
              << "cap " << cap << " threads " << threads << " request "
              << r;
          if (together[r].ok()) ++produced;
        }
        // The group's last two requests share a pair of interest under
        // different seeds; count how often the seed changes the answer.
        const std::size_t last = group.size() - 1;
        if (together[last].ok() && together[last - 1].ok() &&
            !same(together[last], together[last - 1])) {
          ++seed_sensitive;
        }
      }
    }
  }
  EXPECT_GT(produced, 0u);
  // Sharing one matrix across seeds must be observable on this log.
  EXPECT_GT(seed_sensitive, 0u);
}

TEST_F(EngineTest, ConcurrentExplainMatchesSerial) {
  // Mixed-technique request matrix over three prepared queries.
  std::vector<PreparedQuery> prepared;
  for (std::size_t skip : {0u, 7u, 13u}) {
    auto one = engine_.Prepare(MakeQuery(skip));
    ASSERT_TRUE(one.ok());
    prepared.push_back(std::move(one).value());
  }
  struct Case {
    const PreparedQuery* prepared;
    ExplainRequest request;
  };
  std::vector<Case> cases;
  for (const PreparedQuery& one : prepared) {
    for (Technique technique :
         {Technique::kPerfXplain, Technique::kRuleOfThumb,
          Technique::kSimButDiff}) {
      ExplainRequest request;
      request.technique = technique;
      request.width = 2;
      cases.push_back(Case{&one, request});
    }
    ExplainRequest auto_despite;
    auto_despite.auto_despite = true;
    cases.push_back(Case{&one, auto_despite});
  }

  // Serial ground truth from a fresh engine (same snapshot, untouched
  // RuleOfThumb cache).
  const Engine serial_engine(engine_.snapshot(), SerialOptions());
  std::vector<Result<ExplainResponse>> serial;
  for (const Case& c : cases) {
    serial.push_back(serial_engine.Explain(*c.prepared, c.request));
  }

  // N threads hammer one shared engine, each walking the case matrix from
  // a different offset so techniques interleave — the first RuleOfThumb
  // touches race into the call_once initializer.
  const Engine shared_engine(engine_.snapshot(), SerialOptions());
  constexpr int kThreads = 8;
  constexpr int kPasses = 2;
  std::vector<std::vector<std::pair<std::size_t, Result<ExplainResponse>>>>
      results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t c = 0; c < cases.size(); ++c) {
          const std::size_t index =
              (c + static_cast<std::size_t>(t) * 5) % cases.size();
          results[static_cast<std::size_t>(t)].emplace_back(
              index, shared_engine.Explain(*cases[index].prepared,
                                           cases[index].request));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [index, response] : results[static_cast<std::size_t>(t)]) {
      EXPECT_TRUE(SameOutcome(response, serial[index]))
          << "thread " << t << " case " << index;
    }
  }
}

TEST_F(EngineTest, EvaluateIsThreadInvariantOnSnapshotColumns) {
  // Engine::Evaluate scans the snapshot's own columnar replica with the
  // configured explainer threads; neither the thread count nor the
  // despite clause's pruning may change a single count.
  EngineOptions threaded_options = SerialOptions();
  threaded_options.explainer.threads = 3;
  const Engine threaded(engine_.snapshot(), threaded_options);
  const PairSchema schema(log_.schema());
  for (const char* despite : {"", "decoy_c_isSame = T"}) {
    const Query query = MakeQuery(0, despite);
    auto serial_prepared = engine_.Prepare(query);
    auto threaded_prepared = threaded.Prepare(query);
    ASSERT_TRUE(serial_prepared.ok());
    ASSERT_TRUE(threaded_prepared.ok());
    auto response = engine_.Explain(*serial_prepared);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto serial = engine_.Evaluate(*serial_prepared, response->explanation);
    auto parallel =
        threaded.Evaluate(*threaded_prepared, response->explanation);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_GT(serial->pairs_despite, 0u) << despite;
    EXPECT_EQ(serial->pairs_despite, parallel->pairs_despite) << despite;
    EXPECT_EQ(serial->pairs_despite_exp, parallel->pairs_despite_exp);
    EXPECT_EQ(serial->pairs_because, parallel->pairs_because) << despite;
    EXPECT_EQ(serial->pairs_because_obs, parallel->pairs_because_obs);
    EXPECT_EQ(serial->relevance, parallel->relevance) << despite;
    EXPECT_EQ(serial->precision, parallel->precision) << despite;
    EXPECT_EQ(serial->generality, parallel->generality) << despite;
    // The building path over the same rows agrees bit for bit.
    Explanation bound_explanation = response->explanation;
    ASSERT_TRUE(bound_explanation.despite.Bind(schema).ok());
    ASSERT_TRUE(bound_explanation.because.Bind(schema).ok());
    const ExplanationMetrics reference = EvaluateExplanation(
        log_, schema, serial_prepared->bound(), bound_explanation,
        PairFeatureOptions(), EnumerationOptions{1});
    EXPECT_EQ(serial->pairs_despite, reference.pairs_despite) << despite;
    EXPECT_EQ(serial->pairs_because_obs, reference.pairs_because_obs);
    EXPECT_EQ(serial->precision, reference.precision) << despite;
  }
}

TEST_F(EngineTest, EvaluateOnHeldOutLog) {
  auto prepared = engine_.Prepare(MakeQuery());
  ASSERT_TRUE(prepared.ok());
  auto response = engine_.Explain(*prepared);
  ASSERT_TRUE(response.ok());

  const ExecutionLog test_log = CausalLog(80, 777);
  auto metrics = engine_.EvaluateOn(test_log, prepared->bound(),
                                    response->explanation);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->precision, 0.8);  // the causal structure transfers

  ExecutionLog other(perfxplain::testing::TinySchema());
  EXPECT_FALSE(
      engine_.EvaluateOn(other, prepared->bound(), response->explanation)
          .ok());
}

TEST_F(EngineTest, TechniqueNames) {
  EXPECT_STREQ(TechniqueToString(Technique::kPerfXplain), "PerfXplain");
  EXPECT_STREQ(TechniqueToString(Technique::kRuleOfThumb), "RuleOfThumb");
  EXPECT_STREQ(TechniqueToString(Technique::kSimButDiff), "SimButDiff");
}

}  // namespace
}  // namespace perfxplain
