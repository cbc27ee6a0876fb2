#include "common/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace hyperprof {
namespace {

TEST(ThreadPoolTest, ZeroThreadRequestStillGetsOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&](size_t) { ++counter; });
  EXPECT_EQ(counter, 3);
}

TEST(ThreadPoolTest, ManyJobsAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.ParallelFor(200, [&](size_t) { ++counter; });
  EXPECT_EQ(counter, 200);
}

TEST(ThreadPoolTest, ReuseAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 5; ++batch) {
    std::atomic<int> counter{0};
    pool.ParallelFor(30, [&](size_t) { ++counter; });
    EXPECT_EQ(counter, 30) << "batch " << batch;
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterAllJobsFinish) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(20,
                                [&](size_t i) {
                                  if (i == 3) {
                                    throw std::runtime_error("sweep failed");
                                  }
                                  ++completed;
                                }),
               std::runtime_error);
  EXPECT_EQ(completed, 19);
  // The pool survives a throwing job and keeps serving.
  pool.ParallelFor(4, [&](size_t) { ++completed; });
  EXPECT_EQ(completed, 23);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  // Regression: a job running on the pool fans out its own sub-jobs with
  // ParallelFor. With a single worker the pool is at capacity, so before
  // help-running the outer job parked forever while its sub-jobs starved
  // in the queue.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.ParallelFor(2, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { ++inner; });
  });
  EXPECT_EQ(inner, 16);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForCompletes) {
  // Two levels of nesting on a pool smaller than either fan-out: every
  // waiter must keep draining the queue, not just the outermost one.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { ++leaves; });
  });
  EXPECT_EQ(leaves, 16);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(2,
                                [&](size_t) {
                                  pool.ParallelFor(4, [&](size_t i) {
                                    if (i == 2) {
                                      throw std::runtime_error("inner boom");
                                    }
                                  });
                                }),
               std::runtime_error);
  // The pool keeps serving afterwards.
  std::atomic<int> counter{0};
  pool.ParallelFor(4, [&](size_t) { ++counter; });
  EXPECT_EQ(counter, 4);
}

TEST(ThreadPoolTest, ResolveParallelismMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveParallelism(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveParallelism(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveParallelism(7), 7u);
}

}  // namespace
}  // namespace hyperprof
