// Steady-state allocation tests for the trace pipeline. This binary
// replaces the global allocator with the counting shim in
// testing/counting_new.h; it must stay its own test executable so the
// override can't leak into other suites.
//
// The property under test: once a reservoir-mode Tracer has warmed up on a
// workload shape (slot table grown, span vectors at capacity, breakdown
// rows discovered, reservoir full), further Start/AddSpan/Finish cycles
// perform ZERO heap allocations.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "profiling/tracer.h"
#include "profiling/aggregate.h"
#include "profiling/continuous.h"

#include "testing/counting_new.h"

namespace hyperprof::profiling {
namespace {

constexpr int kSpansPerQuery = 6;

// One ingest cycle: start, six spans, finish. Pure NameId API so the
// measured section never touches the interner's hash map growth path.
void RunQuery(Tracer& tracer, NameId platform, NameId type,
              const NameId* span_names, int64_t& now_us) {
  uint64_t id = tracer.StartQuery(platform, type, SimTime::Micros(now_us));
  for (int s = 0; s < kSpansPerQuery; ++s) {
    tracer.AddSpan(id, static_cast<SpanKind>(s % 3), span_names[s % 4],
                   SimTime::Micros(now_us + s * 10),
                   SimTime::Micros(now_us + s * 10 + 8));
  }
  tracer.FinishQuery(id, SimTime::Micros(now_us + 80));
  now_us += 3;
}

TEST(TracerMemoryTest, AllocationCounterIsLive) {
  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  auto* probe = new std::vector<int>(128);
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  delete probe;
  EXPECT_GT(after, before);
}

TEST(TracerMemoryTest, SteadyStateIngestAllocatesNothing) {
  TracerOptions options;
  options.retention = TraceRetention::kSampleReservoir;
  options.reservoir_capacity = 64;
  Tracer tracer(1, Rng(21), options);
  NameId platform = tracer.names().Intern("P");
  NameId type = tracer.names().Intern("q");
  NameId span_names[4] = {
      tracer.names().Intern("compute"), tracer.names().Intern("dfs.read"),
      tracer.names().Intern("dfs.write"), tracer.names().Intern("consensus")};
  int64_t now_us = 0;

  // Warm-up: fill the reservoir, grow the slot table and span pools, let
  // the breakdown accumulator discover the type row.
  for (int i = 0; i < 2000; ++i) {
    RunQuery(tracer, platform, type, span_names, now_us);
  }

  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 2000; ++i) {
    RunQuery(tracer, platform, type, span_names, now_us);
  }
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state ingest performed " << (after - before)
      << " heap allocations over 2000 queries";
  EXPECT_EQ(tracer.traces().size(), 64u);
  EXPECT_EQ(tracer.queries_finished(), 4000u);
}

TEST(TracerMemoryTest, SteadyStateWithConcurrentOpenQueries) {
  // K queries in flight at once, FIFO, like the fleet: slots must recycle
  // without per-query growth once the table reaches K entries.
  constexpr size_t kInFlight = 32;
  TracerOptions options;
  options.retention = TraceRetention::kSampleReservoir;
  options.reservoir_capacity = 16;
  Tracer tracer(1, Rng(22), options);
  NameId platform = tracer.names().Intern("P");
  NameId type = tracer.names().Intern("q");
  NameId span_name = tracer.names().Intern("compute");
  int64_t now_us = 0;

  std::vector<uint64_t> in_flight;
  in_flight.reserve(kInFlight * 2);
  auto pump = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      uint64_t id =
          tracer.StartQuery(platform, type, SimTime::Micros(now_us));
      tracer.AddSpan(id, SpanKind::kCpu, span_name, SimTime::Micros(now_us),
                     SimTime::Micros(now_us + 8));
      in_flight.push_back(id);
      if (in_flight.size() >= kInFlight) {
        tracer.FinishQuery(in_flight.front(), SimTime::Micros(now_us + 80));
        in_flight.erase(in_flight.begin());
      }
      now_us += 3;
    }
  };

  pump(1000);
  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  pump(1000);
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tracer.open_slot_capacity(), kInFlight);
}

TEST(TracerMemoryTest, WindowedPathAllocatesNothingAtSteadyState) {
  // The continuous-profiling extension of the steady-state guarantee: with
  // a windowed profiler attached to the tracer, ingest that crosses many
  // window boundaries — seal, budget evaluation, anomaly logging, ring
  // eviction — still performs zero heap allocations, and so do the
  // barrier-merge and rolling-quantile paths on preallocated instances.
  TracerOptions options;
  options.retention = TraceRetention::kSampleReservoir;
  options.reservoir_capacity = 64;
  Tracer tracer(1, Rng(24), options);

  ContinuousOptions continuous_options;
  continuous_options.window = SimTime::Micros(500);  // ~167 queries/window
  continuous_options.history_size = 8;               // forces ring eviction
  // A 1ns latency budget makes every window an overrun, driving the
  // anomaly-append path inside the measured section.
  continuous_options.budget[static_cast<size_t>(WindowCategory::kLatency)] =
      SimTime::Nanos(1);
  ContinuousProfiler continuous(continuous_options);
  tracer.set_continuous(&continuous);

  ContinuousOptions worker_options = continuous_options;
  worker_options.defer_evaluation = true;
  ContinuousProfiler worker(worker_options);
  ContinuousProfiler merged(continuous_options);

  NameId platform = tracer.names().Intern("P");
  NameId type = tracer.names().Intern("q");
  NameId span_names[4] = {
      tracer.names().Intern("compute"), tracer.names().Intern("dfs.read"),
      tracer.names().Intern("dfs.write"), tracer.names().Intern("consensus")};
  int64_t now_us = 0;

  for (int i = 0; i < 2000; ++i) {
    RunQuery(tracer, platform, type, span_names, now_us);
  }

  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 2000; ++i) {
    RunQuery(tracer, platform, type, span_names, now_us);
    AttributedTime attributed;
    attributed.cpu = 1e-5;
    worker.Observe(SimTime::Micros(now_us), SimTime::Micros(80), attributed);
  }
  merged.MergeFrom(worker);
  merged.Finalize();
  double p99 = continuous.RollingQuantile(WindowCategory::kLatency, 0.99);
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "windowed steady-state path performed " << (after - before)
      << " heap allocations over 2000 queries";
  EXPECT_GT(p99, 0.0);
  EXPECT_GT(continuous.observed_queries(), 0u);
  EXPECT_GT(continuous.windows_evicted(), 0u);  // the eviction path ran
  EXPECT_GT(continuous.budget_stat(WindowCategory::kLatency).overruns, 0u);
  EXPECT_EQ(merged.observed_queries(), 2000u);
  tracer.set_continuous(nullptr);
}

TEST(TracerMemoryTest, RetainAllModeGrowsAsExpected) {
  // Control: with kRetainAll the retained vector must keep allocating —
  // proves the zero above is the reservoir, not a dead counter.
  Tracer tracer(1, Rng(23));
  NameId platform = tracer.names().Intern("P");
  NameId type = tracer.names().Intern("q");
  NameId span_names[4] = {
      tracer.names().Intern("a"), tracer.names().Intern("b"),
      tracer.names().Intern("c"), tracer.names().Intern("d")};
  int64_t now_us = 0;
  for (int i = 0; i < 100; ++i) {
    RunQuery(tracer, platform, type, span_names, now_us);
  }
  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    RunQuery(tracer, platform, type, span_names, now_us);
  }
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_GT(after - before, 0u);
  EXPECT_EQ(tracer.traces().size(), 1100u);
}

TEST(TracerMemoryTest, SamplingIsDeterministicForFixedSeed) {
  // Two tracers with identical seeds and query streams must make identical
  // sampling decisions, retain identical traces, and fold identical
  // breakdowns — sampling must not depend on retention bookkeeping.
  auto run = [](TraceRetention retention) {
    TracerOptions options;
    options.retention = retention;
    options.reservoir_capacity = 32;
    Tracer tracer(5, Rng(99), options);
    NameId platform = tracer.names().Intern("P");
    NameId type_a = tracer.names().Intern("alpha");
    NameId type_b = tracer.names().Intern("beta");
    NameId span_name = tracer.names().Intern("compute");
    std::vector<uint64_t> handles;
    for (int i = 0; i < 5000; ++i) {
      uint64_t id = tracer.StartQuery(platform, i % 3 ? type_a : type_b,
                                      SimTime::Micros(i * 10));
      handles.push_back(id);
      if (id != Tracer::kNotSampled) {
        tracer.AddSpan(id, static_cast<SpanKind>(i % 3), span_name,
                       SimTime::Micros(i * 10), SimTime::Micros(i * 10 + 7));
        tracer.FinishQuery(id, SimTime::Micros(i * 10 + 9));
      }
    }
    return std::make_tuple(handles, tracer.queries_sampled(),
                           tracer.breakdown().e2e().overall.time.cpu,
                           tracer.breakdown().e2e().overall.fraction_sum.io);
  };

  auto a = run(TraceRetention::kRetainAll);
  auto b = run(TraceRetention::kRetainAll);
  EXPECT_EQ(a, b);

  // Retention mode must not perturb the sampling stream: same handles and
  // identical folded doubles either way.
  auto c = run(TraceRetention::kSampleReservoir);
  EXPECT_EQ(std::get<0>(a), std::get<0>(c));
  EXPECT_EQ(std::get<1>(a), std::get<1>(c));
  EXPECT_EQ(std::get<2>(a), std::get<2>(c));
  EXPECT_EQ(std::get<3>(a), std::get<3>(c));
}

}  // namespace
}  // namespace hyperprof::profiling
