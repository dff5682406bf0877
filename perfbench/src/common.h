#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// What every workload shares: the fixed settings, the state of one run,
// one client request, the staged PerfXplain replay of a traced run, and
// the helpers that turn samples into metrics.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "inputs.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace px = perfxplain;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start);

// Every thread count is explicit and never 0; client threads plus
// enumeration workers stay within 4 logical CPUs. Requests run on one
// enumeration thread: on a shared 4-CPU host, two-thread requests spread
// two to three times wider from run to run. The cold re-answer checks use
// another count, which must not change any explanation.
inline constexpr int kThreads = 1;
inline constexpr int kColdThreads = 2;
/// Because-clause width of every PerfXplain and SimButDiff request.
inline constexpr std::size_t kWidth = 3;
/// Set-up is timed at least kSetups times and, while it is cheap, until
/// kSetupMinMs have been spent on it (at most kMaxSetups times).
inline constexpr std::size_t kSetups = 3;
inline constexpr std::size_t kMaxSetups = 25;
inline constexpr double kSetupMinMs = 500.0;

px::EngineOptions EngineOptionsFor(int threads, std::size_t budget);
px::ExplainRequest MakeRequest(px::Technique technique, int threads);

/// Bitwise rendering of an explanation: both clauses plus every score of
/// the selection traces as hexadecimal floats.
std::string Canonical(const px::Explanation& explanation);

/// Attempted and failed operations, error messages, spans and samples of
/// one run. Thread-safe.
class RunState {
 public:
  explicit RunState(const RunOptions& run_options);

  void Attempt() { attempted_.fetch_add(1); }
  /// Counts a failed or incorrect operation, or a violated guard.
  void Fail(const std::string& what);
  /// Copies the counts and errors into `result`.
  void Finish(RunResult& result);
  /// Writes the spans next to the run's other files (traced runs only).
  void WriteSpans() const;

  const RunOptions& options;
  Tracer tracer;
  Samples samples;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mutex_;
  std::vector<std::string> errors_;  // guarded by mutex_
};

/// One client request, PrepareText plus Explain, as a client pays it.
struct Answer {
  bool ok = false;
  double ms = 0.0;          ///< PrepareText + Explain
  double explain_ms = 0.0;  ///< Explain alone
  px::PreparedQuery prepared;
  px::ExplainResponse response;
};

const char* SpanFor(px::Technique technique);

/// Asks `question` of an Engine or a LiveEngine with `technique`.
template <typename Server>
Answer Ask(RunState& run, const Server& server, const Question& question,
           px::Technique technique, int threads) {
  Answer answer;
  run.Attempt();
  const std::uint64_t request_id =
      run.tracer.enabled() ? run.tracer.NewRequest() : 0;
  Tracer::Scope request_span(run.tracer, "client.request", request_id);
  const Clock::time_point start = Clock::now();
  px::Result<px::PreparedQuery> prepared = [&] {
    Tracer::Scope span(run.tracer, "pxql.prepare");
    return server.PrepareText(question.pxql);
  }();
  if (!prepared.ok()) {
    run.Fail("prepare: " + prepared.status().ToString());
    return answer;
  }
  const Clock::time_point explain_start = Clock::now();
  px::Result<px::ExplainResponse> response = [&] {
    Tracer::Scope span(run.tracer, SpanFor(technique));
    return server.Explain(*prepared, MakeRequest(technique, threads));
  }();
  answer.explain_ms = MsSince(explain_start);
  answer.ms = MsSince(start);
  if (!response.ok()) {
    run.Fail(std::string(px::TechniqueToString(technique)) + ": " +
             response.status().ToString());
    return answer;
  }
  answer.ok = true;
  answer.prepared = std::move(prepared).value();
  answer.response = std::move(response).value();
  return answer;
}

/// Traced runs replay each PerfXplain request through the staged public
/// entry points (ScanRelatedPairs, Explainer::BuildEncodedExamplesFromScan,
/// Explainer::ExplainPreparedWithExamples), time each stage, and require
/// the explanation Engine::Explain gave. `engine` must serve the snapshot
/// the answer was prepared on.
void ReplayStaged(RunState& run, const px::Engine& engine,
                  const Answer& answer, int threads);

/// Records a SimButDiff response's tile-pool traffic.
void RecordTiles(RunState& run, const px::ExplainResponse& response);

/// MB the snapshot's pair-code store holds: built planes plus tile-pool
/// frame arenas.
double ResidentMb(const px::LogSnapshot& snapshot);

/// The host-speed reference. On a shared 4-CPU VM (other tenants share
/// its cores and caches) speed drifted by up to a third from minute to
/// minute: the same Explain requests took 28 ms in one run and 45 ms in
/// the next. A fixed, branchy, cache-resident integer kernel — benchmark
/// code that no change to the program touches — slows down with the
/// Explain path, so the benchmark runs it right after each timed request
/// and set-up, and scales CPU-bound times to a host on which the kernel
/// takes kNominalReferenceMs. Raw times are reported too.
inline constexpr double kNominalReferenceMs = 4.0;
/// The Explain path slows more than the kernel when the host does: across
/// consecutive segments of one process, log request latency rose 1.4-1.8
/// times as fast as log kernel time. So a time measured beside kernel
/// time k is scaled by (kNominalReferenceMs / k) ^ kHostSpeedExponent.
/// Over 60 runs of the three workloads, 1.5 left the smallest largest
/// spread of a p50 between seeds (0.16, against 0.25 with an exponent
/// of 1; see perfbench/README.md).
inline constexpr double kHostSpeedExponent = 1.5;
/// Kernel runs after each set-up (set-ups are few, requests many).
inline constexpr int kSetupReferenceSamples = 5;

/// Runs the reference kernel `times` times; returns the median duration.
double ReferenceMs(int times = 1);

/// Timings of one kind: raw values, the reference kernel's duration
/// measured right after each, and the values scaled by it
/// (raw * (kNominalReferenceMs / reference) ^ kHostSpeedExponent).
struct Timings {
  std::vector<double> raw;
  std::vector<double> reference_ms;
  std::vector<double> normalized;

  /// Records `value` (in any unit), then runs the kernel `times` times.
  void Add(double value, int times = 1);
};

/// Per-technique request latencies (ms) of one phase.
struct Latencies {
  Timings perfxplain;
  Timings simbutdiff;

  void Add(px::Technique technique, double ms);
};

/// <name>_p50_ms and <name>_p90_ms (normalized; p90 null below 100
/// samples), <name>_p50_raw_ms, and <name>_samples {count, percentile,
/// value_ms} from the percentile rule.
void ReportLatency(Json& report, const std::string& name,
                   const Timings& latencies);

/// setup_s (normalized), setup_raw_s, setup_samples, and the reference
/// kernel's median durations beside set-ups and requests.
void ReportSetup(Json& report, const Timings& setup_s,
                 const Latencies& measured);

/// error_rate: failed over attempted operations.
void ReportErrorRate(Json& report, const RunResult& result);

/// The result line of an untraced run: the end-to-end metrics every
/// workload reports.
Json EndToEnd(const Timings& setup_s, const Latencies& latencies,
              double peak_rss_mb);

/// The result line of a traced run: every per-layer metric, from the
/// spans, the samples and the workload's own `values`; layers the
/// workload does not cross read 0. trace.overhead_ms is the traced minus
/// the untraced PerfXplain median.
Json PerLayer(const RunState& run, std::map<std::string, double> values,
              const Latencies& untraced, const Latencies& traced);

RunResult RunExplain(const RunOptions& options, bool spill);
RunResult RunIngestLive(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
