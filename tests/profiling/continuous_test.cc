#include "profiling/continuous.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hyperprof::profiling {
namespace {

ContinuousOptions SmallOptions() {
  ContinuousOptions options;
  options.window = SimTime::Millis(10);
  options.history_size = 32;
  return options;
}

AttributedTime Attr(double cpu, double io, double remote) {
  AttributedTime time;
  time.cpu = cpu;
  time.io = io;
  time.remote = remote;
  return time;
}

TEST(ContinuousProfilerTest, BucketsByVirtualFinishTime) {
  ContinuousProfiler profiler(SmallOptions());
  profiler.Observe(SimTime::Millis(1), SimTime::Micros(500),
                   Attr(0.0003, 0.0001, 0.0001));
  profiler.Observe(SimTime::Millis(9), SimTime::Micros(300),
                   Attr(0.0002, 0.0, 0.0001));
  profiler.Observe(SimTime::Millis(12), SimTime::Micros(800),
                   Attr(0.0004, 0.0002, 0.0002));
  profiler.Finalize();

  EXPECT_EQ(profiler.observed_queries(), 3u);
  EXPECT_EQ(profiler.first_window(), 0);
  EXPECT_EQ(profiler.last_window(), 1);
  ASSERT_NE(profiler.WindowAt(0), nullptr);
  ASSERT_NE(profiler.WindowAt(1), nullptr);
  EXPECT_EQ(profiler.WindowAt(2), nullptr);

  const WindowSlot& w0 = *profiler.WindowAt(0);
  EXPECT_EQ(w0.queries, 2u);
  EXPECT_EQ(w0.total_nanos[static_cast<size_t>(WindowCategory::kLatency)],
            SimTime::Micros(800).nanos());
  EXPECT_EQ(w0.total_nanos[static_cast<size_t>(WindowCategory::kCpu)],
            500000);  // llround((0.0003 + 0.0002) * 1e9)
  const WindowSlot& w1 = *profiler.WindowAt(1);
  EXPECT_EQ(w1.queries, 1u);
  EXPECT_EQ(w1.total_nanos[static_cast<size_t>(WindowCategory::kLatency)],
            SimTime::Micros(800).nanos());
  EXPECT_EQ(profiler.WindowsInHistory(), 2u);
}

TEST(ContinuousProfilerTest, BudgetOverrunsFlagAnomalies) {
  ContinuousOptions options = SmallOptions();
  options.budget[static_cast<size_t>(WindowCategory::kCpu)] =
      SimTime::Micros(100);
  ContinuousProfiler profiler(options);
  // Window 0: 250us of CPU — blows the 100us budget.
  profiler.Observe(SimTime::Millis(2), SimTime::Micros(250),
                   Attr(0.00025, 0.0, 0.0));
  // Window 1: 50us of CPU — inside budget.
  profiler.Observe(SimTime::Millis(14), SimTime::Micros(50),
                   Attr(0.00005, 0.0, 0.0));
  profiler.Finalize();

  const BudgetStat& cpu = profiler.budget_stat(WindowCategory::kCpu);
  EXPECT_EQ(cpu.windows_evaluated, 2u);
  EXPECT_EQ(cpu.overruns, 1u);
  EXPECT_EQ(cpu.worst_window, 0);
  EXPECT_EQ(cpu.worst_total_nanos, 250000);
  ASSERT_EQ(profiler.anomalies().size(), 1u);
  const WindowAnomaly& anomaly = profiler.anomalies()[0];
  EXPECT_EQ(anomaly.window, 0);
  EXPECT_EQ(anomaly.category, WindowCategory::kCpu);
  EXPECT_EQ(anomaly.total_nanos, 250000);
  EXPECT_EQ(anomaly.budget_nanos, 100000);
  // Unbudgeted categories never overrun.
  EXPECT_EQ(profiler.budget_stat(WindowCategory::kLatency).overruns, 0u);
}

TEST(ContinuousProfilerTest, AnomalyLogIsBounded) {
  ContinuousOptions options = SmallOptions();
  options.max_anomalies = 3;
  options.budget[static_cast<size_t>(WindowCategory::kLatency)] =
      SimTime::Nanos(1);
  ContinuousProfiler profiler(options);
  for (int w = 0; w < 8; ++w) {
    profiler.Observe(SimTime::Millis(10 * w + 1), SimTime::Micros(100),
                     Attr(0.0, 0.0, 0.0));
  }
  profiler.Finalize();
  EXPECT_EQ(profiler.budget_stat(WindowCategory::kLatency).overruns, 8u);
  EXPECT_EQ(profiler.anomalies().size(), 3u);
  EXPECT_EQ(profiler.anomalies_dropped(), 5u);
}

TEST(ContinuousProfilerTest, LateObservationsAreCountedNotFolded) {
  ContinuousProfiler profiler(SmallOptions());
  profiler.Observe(SimTime::Millis(25), SimTime::Micros(100),
                   Attr(0.0001, 0.0, 0.0));
  // Window 2 is open; windows < 2 are sealed. An observation landing in
  // window 0 must be dropped, not folded into an already-judged window.
  profiler.Observe(SimTime::Millis(5), SimTime::Micros(100),
                   Attr(0.0001, 0.0, 0.0));
  profiler.Finalize();
  EXPECT_EQ(profiler.late_observations(), 1u);
  EXPECT_EQ(profiler.observed_queries(), 1u);
  EXPECT_EQ(profiler.WindowAt(0), nullptr);
}

TEST(ContinuousProfilerTest, RingEvictsOldestWindows) {
  ContinuousOptions options = SmallOptions();
  options.history_size = 4;
  ContinuousProfiler profiler(options);
  for (int w = 0; w < 10; ++w) {
    profiler.Observe(SimTime::Millis(10 * w + 1), SimTime::Micros(100),
                     Attr(0.0, 0.0, 0.0));
  }
  profiler.Finalize();
  EXPECT_EQ(profiler.WindowsInHistory(), 4u);
  EXPECT_EQ(profiler.windows_evicted(), 6u);
  EXPECT_EQ(profiler.WindowAt(5), nullptr);
  EXPECT_NE(profiler.WindowAt(9), nullptr);
  // Evaluation happened for every window before its slot was reused.
  EXPECT_EQ(profiler.budget_stat(WindowCategory::kLatency).windows_evaluated,
            10u);
}

// Shard rings that each hold fewer than `history_size` windows can together
// span more: windows `history_size` apart share one ring slot. In either
// merge order the merged ring keeps the newer window and counts the older
// one as evicted, as one ring that saw both would have.
TEST(ContinuousProfilerTest, MergeEvictsTheOlderOfTwoWindowsInOneSlot) {
  ContinuousOptions options = SmallOptions();
  options.defer_evaluation = true;
  const int64_t history = static_cast<int64_t>(options.history_size);
  ContinuousProfiler older(options);
  ContinuousProfiler newer(options);
  older.Observe(SimTime::Millis(1), SimTime::Micros(100),
                Attr(0.0001, 0.0, 0.0));
  newer.Observe(SimTime::Millis(10 * history + 1), SimTime::Micros(200),
                Attr(0.0002, 0.0, 0.0));
  for (bool older_first : {true, false}) {
    ContinuousProfiler merged(SmallOptions());
    merged.MergeFrom(older_first ? older : newer);
    merged.MergeFrom(older_first ? newer : older);
    merged.Finalize();
    EXPECT_EQ(merged.windows_evicted(), 1u) << "older_first=" << older_first;
    EXPECT_EQ(merged.WindowAt(0), nullptr);
    const WindowSlot* kept = merged.WindowAt(history);
    ASSERT_NE(kept, nullptr) << "older_first=" << older_first;
    EXPECT_EQ(kept->queries, 1u);
    EXPECT_EQ(kept->total_nanos[static_cast<size_t>(WindowCategory::kLatency)],
              SimTime::Micros(200).nanos());
  }
}

TEST(ContinuousProfilerTest, RollingQuantileSpansHistory) {
  ContinuousProfiler profiler(SmallOptions());
  for (int i = 0; i < 100; ++i) {
    double latency_s = 1e-4 * (1 + i % 10);
    profiler.Observe(SimTime::Millis(i), SimTime::FromSeconds(latency_s),
                     Attr(latency_s, 0.0, 0.0));
  }
  profiler.Finalize();
  double p50 = profiler.RollingQuantile(WindowCategory::kLatency, 0.5);
  double p99 = profiler.RollingQuantile(WindowCategory::kLatency, 0.99);
  EXPECT_GT(p50, 1e-4);
  EXPECT_LT(p50, 1e-3);
  EXPECT_GT(p99, p50);
}

TEST(ContinuousProfilerDeathTest, MergeRejectsMismatchedWindow) {
  ContinuousOptions a = SmallOptions();
  ContinuousOptions b = SmallOptions();
  b.window = SimTime::Millis(20);
  ContinuousProfiler merged(a);
  ContinuousProfiler shard(b);
  EXPECT_DEATH(merged.MergeFrom(shard), "window width mismatch");
}

TEST(ContinuousProfilerDeathTest, MergeRejectsMismatchedBudget) {
  ContinuousOptions a = SmallOptions();
  ContinuousOptions b = SmallOptions();
  b.budget[0] = SimTime::Micros(1);
  ContinuousProfiler merged(a);
  ContinuousProfiler shard(b);
  EXPECT_DEATH(merged.MergeFrom(shard), "budget mismatch");
}

// The acceptance contract: N deferred worker shards merged at the barrier
// must reproduce the fused streaming aggregation exactly — window totals,
// sketch bucket counts, percentiles, budget stats, and the anomaly log —
// for any shard count and any assignment of queries to shards.
TEST(ContinuousProfilerTest, ShardMergeMatchesFusedExactly) {
  Rng rng(31);
  for (int round = 0; round < 12; ++round) {
    ContinuousOptions options = SmallOptions();
    options.budget[static_cast<size_t>(WindowCategory::kCpu)] =
        SimTime::Micros(400);
    options.budget[static_cast<size_t>(WindowCategory::kLatency)] =
        SimTime::Millis(2);

    size_t shards = 1 + rng.NextBounded(7);
    ContinuousProfiler fused(options);
    std::vector<ContinuousProfiler> workers;
    ContinuousOptions worker_options = options;
    worker_options.defer_evaluation = true;
    for (size_t s = 0; s < shards; ++s) workers.emplace_back(worker_options);

    // Completion times arrive nondecreasing at the fused profiler (as
    // from a tracer); each query lands on a random shard.
    int64_t now_us = 0;
    int queries = 200 + static_cast<int>(rng.NextBounded(400));
    for (int i = 0; i < queries; ++i) {
      now_us += static_cast<int64_t>(rng.NextBounded(900));
      SimTime end = SimTime::Micros(now_us);
      SimTime latency = SimTime::Micros(1 + rng.NextBounded(3000));
      AttributedTime at = Attr(rng.NextExponential(2e-4),
                               rng.NextExponential(1e-4),
                               rng.NextExponential(5e-5));
      fused.Observe(end, latency, at);
      workers[rng.NextBounded(shards)].Observe(end, latency, at);
    }
    fused.Finalize();

    ContinuousProfiler merged(options);
    size_t start = rng.NextBounded(shards);  // rotate the merge order
    for (size_t s = 0; s < shards; ++s) {
      merged.MergeFrom(workers[(start + s) % shards]);
    }
    merged.Finalize();

    EXPECT_EQ(merged.observed_queries(), fused.observed_queries());
    EXPECT_EQ(merged.first_window(), fused.first_window());
    EXPECT_EQ(merged.last_window(), fused.last_window());
    EXPECT_EQ(merged.windows_evicted(), 0u);
    for (int64_t w = fused.first_window(); w <= fused.last_window(); ++w) {
      const WindowSlot* fw = fused.WindowAt(w);
      const WindowSlot* mw = merged.WindowAt(w);
      ASSERT_EQ(fw == nullptr, mw == nullptr) << "window " << w;
      if (fw == nullptr) continue;
      EXPECT_EQ(mw->queries, fw->queries) << "window " << w;
      for (size_t c = 0; c < kNumWindowCategories; ++c) {
        EXPECT_EQ(mw->total_nanos[c], fw->total_nanos[c])
            << "window " << w << " category " << c;
        EXPECT_EQ(mw->sketches[c].bucket_counts(),
                  fw->sketches[c].bucket_counts())
            << "window " << w << " category " << c;
        EXPECT_EQ(mw->sketches[c].underflow(), fw->sketches[c].underflow());
      }
    }
    for (size_t c = 0; c < kNumWindowCategories; ++c) {
      WindowCategory cat = static_cast<WindowCategory>(c);
      const BudgetStat& fb = fused.budget_stat(cat);
      const BudgetStat& mb = merged.budget_stat(cat);
      EXPECT_EQ(mb.windows_evaluated, fb.windows_evaluated);
      EXPECT_EQ(mb.overruns, fb.overruns);
      EXPECT_EQ(mb.worst_total_nanos, fb.worst_total_nanos);
      EXPECT_EQ(mb.worst_window, fb.worst_window);
      for (double q : {0.1, 0.5, 0.9, 0.99}) {
        EXPECT_DOUBLE_EQ(merged.RollingQuantile(cat, q),
                         fused.RollingQuantile(cat, q));
      }
    }
    ASSERT_EQ(merged.anomalies().size(), fused.anomalies().size());
    EXPECT_EQ(merged.anomalies_dropped(), fused.anomalies_dropped());
    for (size_t i = 0; i < fused.anomalies().size(); ++i) {
      EXPECT_EQ(merged.anomalies()[i].window, fused.anomalies()[i].window);
      EXPECT_EQ(merged.anomalies()[i].category,
                fused.anomalies()[i].category);
      EXPECT_EQ(merged.anomalies()[i].total_nanos,
                fused.anomalies()[i].total_nanos);
    }
  }
}

TEST(ContinuousProfilerTest, FinalizeIsIdempotent) {
  ContinuousProfiler profiler(SmallOptions());
  profiler.Observe(SimTime::Millis(1), SimTime::Micros(100),
                   Attr(0.0001, 0.0, 0.0));
  profiler.Finalize();
  uint64_t evaluated =
      profiler.budget_stat(WindowCategory::kLatency).windows_evaluated;
  profiler.Finalize();
  EXPECT_EQ(profiler.budget_stat(WindowCategory::kLatency).windows_evaluated,
            evaluated);
}

TEST(ContinuousProfilerTest, EmptyProfilerIsInert) {
  ContinuousProfiler profiler(SmallOptions());
  profiler.Finalize();
  EXPECT_EQ(profiler.observed_queries(), 0u);
  EXPECT_EQ(profiler.WindowsInHistory(), 0u);
  EXPECT_EQ(profiler.first_window(), -1);
  EXPECT_DOUBLE_EQ(profiler.RollingQuantile(WindowCategory::kCpu, 0.5), 0.0);
  EXPECT_GT(profiler.memory_bytes(), 0u);
}

}  // namespace
}  // namespace hyperprof::profiling
