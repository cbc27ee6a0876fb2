#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace hyperprof {

void ParallelFor(size_t n, size_t parallelism,
                 const std::function<void(size_t)>& fn) {
  if (parallelism == 0) {
    parallelism = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  size_t error_index = SIZE_MAX;
  std::exception_ptr error;
  auto claim_and_run = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };
  const size_t threads = std::min(parallelism, n);
  std::vector<std::thread> helpers;
  // Reserved before any thread starts, so below only starting a thread
  // can throw.
  helpers.reserve(threads > 1 ? threads - 1 : 0);
  for (size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(claim_and_run);
    } catch (const std::system_error&) {
      // The host refused another thread; the ones started and the caller
      // still claim every index.
      break;
    }
  }
  claim_and_run();
  // Joining orders every helper's writes, its error record included,
  // before the caller reads them.
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace hyperprof
