#ifndef PERFXPLAIN_COMMON_ROW_STRIPE_H_
#define PERFXPLAIN_COMMON_ROW_STRIPE_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "common/cancel.h"

namespace perfxplain {

/// Overrides the process-wide default worker count (0 restores "hardware
/// concurrency"). Thread count is observation-free: it never changes any
/// result, only wall-clock time.
void SetDefaultEnumerationThreads(int threads);

/// The positive worker count a thread knob resolves to: `threads` itself
/// when positive, otherwise the process default (SetDefaultEnumerationThreads),
/// otherwise the hardware concurrency. Every "0 = default" thread option —
/// enumeration, RReliefF, pair-code fills, promotion — resolves here.
int ResolveThreads(int threads);

/// Number of stripes ForEachRowStripe will actually use: the resolved
/// thread count clamped to the row count (and at least 1). Size
/// per-stripe partial-result buffers with this, never with the raw
/// thread count.
inline std::size_t RowStripeCount(std::size_t rows, int threads) {
  return std::min<std::size_t>(
      static_cast<std::size_t>(threads > 0 ? threads : 1),
      std::max<std::size_t>(rows, 1));
}

/// Runs body(stripe_index, row_begin, row_end) over RowStripeCount
/// contiguous row stripes covering [0, rows), on worker threads when more
/// than one stripe is used. `threads` must already be resolved
/// (ResolveThreads); a non-positive value runs one stripe. Stripes ascend
/// with stripe_index, so per-stripe partial results merged in stripe order
/// reproduce the row-major order. An exception thrown by any stripe is
/// rethrown on the calling thread after all workers join. The calling
/// thread's ExecContext (if any) is re-installed in every worker, so
/// cancellation checkpoints inside `body` see the request's token and
/// deadline across stripe boundaries. Shared by the pair scans, RReliefF
/// and the pair-code fills.
///
/// Concurrency model (out of scope for the thread-safety analysis, which
/// checks lock-guarded state only): workers write disjoint per-stripe
/// partials and the join below is the sole publication point — no lock, no
/// shared mutable state, so there is nothing to annotate. The bitwise
/// thread-invariance suites and the TSan CI job enforce this invariant;
/// any new shared mutable state added to a stripe body must either be a
/// per-stripe partial merged after the join or hold an annotated px::Mutex.
template <typename Body>
void ForEachRowStripe(std::size_t rows, int threads, Body&& body) {
  const std::size_t t = RowStripeCount(rows, threads);
  if (t <= 1) {
    body(std::size_t{0}, std::size_t{0}, rows);
    return;
  }
  const ExecContext* exec_context = CurrentExecContext();
  std::vector<std::thread> workers;
  workers.reserve(t - 1);
  std::vector<std::exception_ptr> errors(t);
  const std::size_t chunk = (rows + t - 1) / t;
  for (std::size_t b = 1; b < t; ++b) {
    const std::size_t begin = b * chunk;
    const std::size_t end = std::min(rows, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&body, &errors, exec_context, b, begin, end] {
      ScopedExecContext scoped(exec_context);
      try {
        body(b, begin, end);
      } catch (...) {
        errors[b] = std::current_exception();
      }
    });
  }
  // Stripe 0 runs on the calling thread, concurrently with the workers, so
  // `threads` means what it says.
  try {
    body(std::size_t{0}, std::size_t{0}, std::min(rows, chunk));
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace perfxplain

#endif  // PERFXPLAIN_COMMON_ROW_STRIPE_H_
