#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <utility>

namespace hyperprof {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

// Lives on the ParallelFor caller's stack. A task touches it only
// before its fetch_sub on `remaining`: once the count hits zero the
// caller may return and destroy it, so the completion notification
// below goes through the pool's own mutex_/wake_, which outlive the
// call.
struct ThreadPool::ForControl {
  const std::function<void(size_t)>* fn;
  std::atomic<size_t> remaining;
  std::mutex error_mutex;
  size_t error_index = SIZE_MAX;
  std::exception_ptr error;
};

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  ForControl ctl;
  ctl.fn = &fn;
  ctl.remaining.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < n; ++i) {
      // [pool pointer, control pointer, index]: 24 bytes, inline in
      // Task, so the whole fan-out allocates nothing beyond the deque's
      // steady-state nodes.
      queue_.emplace_back([this, ctl_ptr = &ctl, i] {
        try {
          (*ctl_ptr->fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> error_lock(ctl_ptr->error_mutex);
          if (i < ctl_ptr->error_index) {
            ctl_ptr->error_index = i;
            ctl_ptr->error = std::current_exception();
          }
        }
        if (ctl_ptr->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          // Last job: wake the caller. Lock-then-notify so the wakeup
          // cannot fall between the caller's predicate check and its
          // wait. Past this point ctl_ptr is never dereferenced.
          std::lock_guard<std::mutex> done_lock(mutex_);
          wake_.notify_all();
        }
      });
    }
  }
  wake_.notify_all();
  // While jobs are unfinished, help-run queued tasks: when this
  // ParallelFor was issued from inside a pool worker, parking that
  // worker would starve its own sub-jobs once the pool is at capacity.
  // A job that left the queue is running (or done) on some thread, so
  // parking on wake_ is safe once the queue is empty.
  for (;;) {
    if (ctl.remaining.load(std::memory_order_acquire) == 0) break;
    if (TryRunOneQueued()) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this, &ctl] {
      return ctl.remaining.load(std::memory_order_acquire) == 0 ||
             !queue_.empty();
    });
  }
  // The acquire read of remaining == 0 orders every job's error record
  // (written before its fetch_sub release) before this load.
  if (ctl.error) std::rethrow_exception(ctl.error);
}

bool ThreadPool::TryRunOneQueued() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  // ParallelFor tasks catch internally; nothing propagates here.
  task();
  return true;
}

size_t ThreadPool::ResolveParallelism(size_t parallelism) {
  if (parallelism != 0) return parallelism;
  size_t hardware = std::thread::hardware_concurrency();
  return std::max<size_t>(1, hardware);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace hyperprof
