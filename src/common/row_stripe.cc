#include "common/row_stripe.h"

#include <atomic>

namespace perfxplain {

namespace {

std::atomic<int> g_default_threads{0};

}  // namespace

void SetDefaultEnumerationThreads(int threads) {
  g_default_threads.store(threads < 0 ? 0 : threads);
}

int ResolveThreads(int threads) {
  if (threads <= 0) threads = g_default_threads.load();
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return threads <= 0 ? 1 : threads;
}

}  // namespace perfxplain
