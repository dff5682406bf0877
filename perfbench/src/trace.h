#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call across a layer boundary.
struct Span {
  std::string name;       ///< "<layer>.<call>", e.g. "core.scan"
  std::int64_t start_ns;  ///< steady clock, relative to the tracer's epoch
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;   ///< 0 = root
  std::uint64_t request;  ///< 0 = not part of a request
};

/// In-memory span recorder for the traced run. Spans are opened and closed
/// from the benchmark's own code around calls into each module's public
/// functions; each thread keeps its own stack of open spans, so a span's
/// parent is the innermost span open on the same thread. Nothing is
/// written until WriteJson, after the run. A disabled tracer records
/// nothing and its scopes cost one branch. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off for spans opened from now on.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// A fresh request id for the spans of one client request.
  std::uint64_t NewRequest();

  /// RAII span. `request` 0 inherits the enclosing span's request.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Milliseconds since the scope opened (valid when disabled too).
    double ElapsedMs() const;

   private:
    Tracer& tracer_;
    std::chrono::steady_clock::time_point start_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::uint64_t request_ = 0;
    const char* name_;
    bool recording_ = false;
  };

  /// Durations (ms) of every closed span named `name`, in close order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes {"spans":[...]} to `path`. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t NowNs(std::chrono::steady_clock::time_point t) const;

  std::atomic<bool> enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;              // guarded by mutex_
  std::uint32_t next_span_ = 1;          // guarded by mutex_
  std::uint64_t next_request_ = 1;       // guarded by mutex_
};

/// Named numeric observations the traced run makes beside its spans
/// (counts read from responses and the counting file system), kept per
/// observation so a metric can take a median, a mean or a sum.
class Samples {
 public:
  void Add(const std::string& name, double value);
  std::vector<double> Get(const std::string& name) const;
  double Sum(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> values_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
