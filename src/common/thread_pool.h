#ifndef HYPERPROF_COMMON_THREAD_POOL_H_
#define HYPERPROF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/inline_function.h"

namespace hyperprof {

/**
 * Reusable fixed-size worker pool.
 *
 * The fleet harness and the sweep runners fan coarse-grained jobs (an
 * entire platform simulation, one sweep point) out through ParallelFor,
 * so the design favors simplicity over lock-free throughput: one
 * mutex-guarded queue, workers parked on a condition variable. Exceptions
 * thrown by a job are rethrown by ParallelFor, never swallowed. A pool
 * outlives any number of ParallelFor batches.
 *
 * The queue element is an InlineFunction rather than std::function so
 * that the per-task closures ParallelFor enqueues (a control-block
 * pointer plus an index) never touch the heap: a ParallelFor over n
 * indices performs zero allocations beyond what fn itself does.
 */
class ThreadPool {
 public:
  /** Spawns `num_threads` workers (minimum 1). */
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /** Joins the workers. */
  ~ThreadPool();

  /** Number of worker threads. */
  size_t size() const { return workers_.size(); }

  /**
   * Runs fn(0..n-1) across the pool and blocks until all complete.
   * Rethrows the lowest-index exception after every job finished.
   *
   * Safe to call from inside a pool worker: while any job is unfinished
   * the caller help-runs queued tasks instead of parking, so a job that
   * itself calls ParallelFor on the same pool cannot deadlock a pool that
   * is at capacity.
   */
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /**
   * Worker count for a `parallelism` knob: 0 means "all hardware
   * threads" (minimum 1), anything else is taken literally.
   */
  static size_t ResolveParallelism(size_t parallelism);

 private:
  // 48 bytes comfortably holds the ParallelFor closures (pool pointer,
  // control pointer, index).
  using Task = InlineFunction<void(), 48>;

  /** Bookkeeping for one ParallelFor call, on the caller's stack. */
  struct ForControl;

  void WorkerLoop();
  /** Pops and runs one queued task if any; returns false when idle. */
  bool TryRunOneQueued();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_THREAD_POOL_H_
