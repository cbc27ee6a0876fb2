#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hyperprof {
namespace {

// Runs ParallelFor(n, parallelism) and expects every index exactly once.
void ExpectEveryIndexOnce(size_t n, size_t parallelism) {
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, parallelism, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], 1) << "n=" << n << " parallelism=" << parallelism
                          << " index=" << i;
  }
}

// The distinct threads that ran the calls of ParallelFor(n, parallelism).
std::set<std::thread::id> ThreadsUsed(size_t n, size_t parallelism) {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  ParallelFor(n, parallelism, [&](size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  return ids;
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  // n = 0, 1 and fewer indices than threads; parallelism 0 (hardware),
  // 1 (inline) and N.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}}) {
    for (size_t parallelism : {size_t{0}, size_t{1}, size_t{8}}) {
      ExpectEveryIndexOnce(n, parallelism);
    }
  }
}

TEST(ParallelForTest, ManyIndicesAllComplete) {
  // Many more indices than threads, so each thread claims many of them.
  for (size_t parallelism : {size_t{0}, size_t{1}, size_t{8}}) {
    ExpectEveryIndexOnce(1000, parallelism);
  }
}

TEST(ParallelForTest, ZeroParallelismStillGetsAThread) {
  // 0 resolves to the hardware threads, at least one.
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const std::set<std::thread::id> ids = ThreadsUsed(200, 0);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), hardware);
  // A single index runs inline on the caller whatever the parallelism.
  EXPECT_EQ(ThreadsUsed(1, 0),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ParallelForTest, ThreadCountFollowsParallelism) {
  const std::thread::id caller = std::this_thread::get_id();
  // Parallelism 1 runs inline on the caller; N runs on at most N threads.
  EXPECT_EQ(ThreadsUsed(50, 1), std::set<std::thread::id>{caller});
  EXPECT_EQ(ThreadsUsed(1, 8), std::set<std::thread::id>{caller});
  EXPECT_LE(ThreadsUsed(200, 3).size(), 3u);

  // min(parallelism, n) threads run at once: each call below holds its
  // thread until all three indices have arrived, so fewer threads would
  // never get there.
  std::mutex mutex;
  std::condition_variable all_arrived;
  size_t arrived = 0;
  std::set<std::thread::id> ids;
  ParallelFor(3, 8, [&](size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
    ++arrived;
    all_arrived.notify_all();
    all_arrived.wait_for(lock, std::chrono::seconds(30),
                         [&] { return arrived == 3; });
  });
  EXPECT_EQ(arrived, 3u);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids.count(caller), 1u);
}

TEST(ParallelForTest, RethrowsLowestIndexAfterAllIndicesRan) {
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    std::atomic<int> completed{0};
    try {
      ParallelFor(40, parallelism, [&](size_t i) {
        if (i == 7 || i == 3 || i == 31) {
          throw std::runtime_error("index " + std::to_string(i));
        }
        ++completed;
      });
      ADD_FAILURE() << "no exception at parallelism " << parallelism;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "index 3") << parallelism;
    }
    EXPECT_EQ(completed, 37) << parallelism;
  }
}

TEST(ParallelForTest, NestedParallelForCompletes) {
  // A ParallelFor called from inside fn starts threads of its own, under
  // an inline outer call and a threaded one.
  for (size_t parallelism : {size_t{1}, size_t{2}}) {
    std::atomic<int> inner{0};
    ParallelFor(2, parallelism, [&](size_t) {
      ParallelFor(8, parallelism, [&](size_t) { ++inner; });
    });
    EXPECT_EQ(inner, 16) << parallelism;
  }
}

TEST(ParallelForTest, DeeplyNestedParallelForCompletes) {
  std::atomic<int> leaves{0};
  ParallelFor(4, 2, [&](size_t) {
    ParallelFor(4, 2, [&](size_t) {
      ParallelFor(3, 0, [&](size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves, 48);
}

TEST(ParallelForTest, NestedParallelForPropagatesInnerException) {
  std::atomic<int> inner{0};
  EXPECT_THROW(ParallelFor(2, 2,
                           [&](size_t) {
                             ParallelFor(4, 2, [&](size_t i) {
                               if (i == 2) {
                                 throw std::runtime_error("inner boom");
                               }
                               ++inner;
                             });
                           }),
               std::runtime_error);
  EXPECT_EQ(inner, 6);
}

}  // namespace
}  // namespace hyperprof
