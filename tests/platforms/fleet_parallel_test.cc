// Determinism contract of the sharded fleet: the parallelism knob selects
// host threads only — every setting must recover bit-identical
// PlatformResult breakdowns, because each platform shard owns its
// substrate and derives its RNG streams from hash(seed, platform_index)
// alone (see DESIGN.md).

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "profiling/categories.h"

namespace hyperprof::platforms {
namespace {

/**
 * The three paper platforms behind a small block space. Construction
 * memory is dominated by the Zipf-prewarmed caches, which scale with
 * block_space; a paper-scale fleet holds ~1.3 GB, too much to keep
 * several alive under ThreadSanitizer. Every fleet in this file uses
 * these specs, so each comparison stays within one model.
 */
void AddSmallPlatforms(FleetSimulation& fleet) {
  for (PlatformSpec spec : {SpannerSpec(), BigTableSpec(), BigQuerySpec()}) {
    spec.block_space = 1 << 14;
    fleet.AddPlatform(std::move(spec));
  }
}

std::unique_ptr<FleetSimulation> RunFleet(uint32_t parallelism,
                                          uint64_t seed = 42,
                                          uint32_t shards = 0) {
  FleetConfig config;
  // Sharded runs pay per-epoch barrier overhead at test scale; a smaller
  // volume keeps the 1/2/3/8 sweep fast without weakening bit-identity.
  config.queries_per_platform = shards > 0 ? 200 : 400;
  config.trace_sample_one_in = 5;
  config.seed = seed;
  config.parallelism = parallelism;
  config.shards_per_platform = shards;
  auto fleet = std::make_unique<FleetSimulation>(config);
  AddSmallPlatforms(*fleet);
  fleet->RunAll();
  return fleet;
}

/**
 * The same fleet driven through the incremental Start/Advance/Finish API
 * in seed-derived random virtual-time increments, as the serving daemon
 * drives it — pausing must never become a barrier (DESIGN.md §16).
 */
std::unique_ptr<FleetSimulation> RunFleetIncremental(uint64_t step_seed,
                                                     uint32_t shards = 0) {
  FleetConfig config;
  config.queries_per_platform = shards > 0 ? 200 : 400;
  config.trace_sample_one_in = 5;
  config.seed = 42;
  config.parallelism = 1;
  config.shards_per_platform = shards;
  auto fleet = std::make_unique<FleetSimulation>(config);
  AddSmallPlatforms(*fleet);
  fleet->Start();
  Rng rng(step_seed);
  SimTime horizon = SimTime::Zero();
  while (true) {
    horizon += SimTime::Micros(100 + static_cast<int64_t>(
                                         rng.NextBounded(20000)));
    if (!fleet->Advance(horizon)) break;
  }
  fleet->Finish();
  return fleet;
}

/** Shares the serial (parallelism=1) reference run across the suite. */
FleetSimulation& SerialReference() {
  static std::unique_ptr<FleetSimulation> fleet = RunFleet(1);
  return *fleet;
}

/** The sharded reference: one worker shard, serial host execution. */
FleetSimulation& ShardedReference() {
  static std::unique_ptr<FleetSimulation> fleet =
      RunFleet(/*parallelism=*/1, /*seed=*/42, /*shards=*/1);
  return *fleet;
}

void ExpectContinuousIdentical(FleetSimulation& a, FleetSimulation& b);

void ExpectBitIdentical(FleetSimulation& serial, FleetSimulation& parallel) {
  ASSERT_EQ(serial.platform_count(), parallel.platform_count());
  EXPECT_EQ(serial.total_events_executed(), parallel.total_events_executed());
  for (size_t p = 0; p < serial.platform_count(); ++p) {
    PlatformResult a = serial.Result(p);
    PlatformResult b = parallel.Result(p);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.queries_completed, b.queries_completed) << a.name;
    EXPECT_EQ(a.queries_sampled, b.queries_sampled) << a.name;

    // Exact double equality is deliberate: identical streams must yield
    // identical arithmetic, not merely statistically similar results.
    for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
      const auto& ga = a.e2e.groups[g];
      const auto& gb = b.e2e.groups[g];
      EXPECT_EQ(ga.query_count, gb.query_count) << a.name << " group " << g;
      EXPECT_EQ(ga.time.cpu, gb.time.cpu) << a.name << " group " << g;
      EXPECT_EQ(ga.time.io, gb.time.io) << a.name << " group " << g;
      EXPECT_EQ(ga.time.remote, gb.time.remote) << a.name << " group " << g;
    }
    EXPECT_EQ(a.e2e.overall.time.cpu, b.e2e.overall.time.cpu) << a.name;
    EXPECT_EQ(a.e2e.overall.time.io, b.e2e.overall.time.io) << a.name;
    EXPECT_EQ(a.e2e.overall.time.remote, b.e2e.overall.time.remote)
        << a.name;

    for (size_t c = 0; c < profiling::kNumFnCategories; ++c) {
      EXPECT_EQ(a.cycles.cycles_by_category[c], b.cycles.cycles_by_category[c])
          << a.name << " category " << c;
    }

    EXPECT_EQ(a.microarch.overall.cycles(), b.microarch.overall.cycles())
        << a.name;
    EXPECT_EQ(a.microarch.overall.instructions(),
              b.microarch.overall.instructions())
        << a.name;
    for (int broad = 0; broad < 3; ++broad) {
      EXPECT_EQ(a.microarch.by_broad[broad].Ipc(),
                b.microarch.by_broad[broad].Ipc())
          << a.name << " broad " << broad;
    }

    // Raw traces too: same sampled queries, same span boundaries.
    const auto& ta = serial.TracesOf(p);
    const auto& tb = parallel.TracesOf(p);
    ASSERT_EQ(ta.size(), tb.size()) << a.name;
    for (size_t t = 0; t < ta.size(); ++t) {
      EXPECT_EQ(ta[t].trace_id, tb[t].trace_id) << a.name << " trace " << t;
      EXPECT_EQ(ta[t].start, tb[t].start) << a.name << " trace " << t;
      EXPECT_EQ(ta[t].end, tb[t].end) << a.name << " trace " << t;
      EXPECT_EQ(ta[t].spans.size(), tb[t].spans.size())
          << a.name << " trace " << t;
    }
  }
  // The continuous-profiling windows are part of the determinism contract
  // too: per-shard accumulation merged at the finalize barrier must agree
  // exactly across every parallelism and shard-count setting (integer
  // accumulation makes the merge order-invariant; DESIGN.md §15).
  ExpectContinuousIdentical(serial, parallel);
}

TEST(FleetParallelTest, SerialAndParallelRunsAreBitIdentical) {
  auto parallel = RunFleet(/*parallelism=*/3);
  ExpectBitIdentical(SerialReference(), *parallel);
}

TEST(FleetParallelTest, HardwareDefaultMatchesSerial) {
  auto hardware = RunFleet(/*parallelism=*/0);
  ExpectBitIdentical(SerialReference(), *hardware);
}

TEST(FleetParallelTest, OversubscribedPoolMatchesSerial) {
  // More threads than platforms: the pool is clamped, results unchanged.
  auto oversubscribed = RunFleet(/*parallelism=*/16);
  ExpectBitIdentical(SerialReference(), *oversubscribed);
}

TEST(FleetParallelTest, IncrementalAdvanceMatchesOneShotRun) {
  // Two different pause schedules, both bit-identical to the one-shot
  // reference: Advance(until) executes the exact same events in the exact
  // same order, only in installments.
  for (uint64_t step_seed : {7u, 1234u}) {
    auto incremental = RunFleetIncremental(step_seed);
    ExpectBitIdentical(SerialReference(), *incremental);
  }
}

TEST(FleetParallelTest, DifferentSeedsProduceDifferentFleets) {
  // Sanity check that the comparison above has teeth: changing the fleet
  // seed changes the recovered numbers.
  auto other = RunFleet(/*parallelism=*/1, /*seed=*/43);
  EXPECT_NE(SerialReference().total_events_executed(),
            other->total_events_executed());
}

// --- Intra-platform sharding: shard count must never change an output bit
// (DESIGN.md §13). All comparisons are within the sharded timing model;
// fused (shards=0) platforms are a different model family.

TEST(FleetShardingTest, ShardCountsRecoverBitIdenticalResults) {
  for (uint32_t shards : {2u, 3u, 8u}) {
    auto sharded = RunFleet(/*parallelism=*/1, /*seed=*/42, shards);
    ExpectBitIdentical(ShardedReference(), *sharded);
  }
}

TEST(FleetShardingTest, IncrementalAdvanceMatchesShardedReference) {
  // Incremental advance across shard-group epochs: pausing mid-epoch must
  // not flip mailboxes or re-plan deadlines, so the epoch structure — and
  // every digested bit — matches the one-shot sharded run.
  for (uint32_t shards : {1u, 4u}) {
    auto incremental = RunFleetIncremental(/*step_seed=*/99, shards);
    ExpectBitIdentical(ShardedReference(), *incremental);
  }
}

TEST(FleetShardingTest, ParallelShardedMatchesSerialSharded) {
  // Per-kernel runner threads inside each platform's job on the
  // hardware-default pool — must match both the serial 4-shard run and
  // the 1-shard reference.
  auto parallel = RunFleet(/*parallelism=*/0, /*seed=*/42, /*shards=*/4);
  auto serial = RunFleet(/*parallelism=*/1, /*seed=*/42, /*shards=*/4);
  ExpectBitIdentical(*serial, *parallel);
  ExpectBitIdentical(ShardedReference(), *parallel);
}

TEST(FleetShardingTest, ShardFabricConservesMessages) {
  auto fleet = RunFleet(/*parallelism=*/1, /*seed=*/42, /*shards=*/2);
  for (size_t p = 0; p < fleet->platform_count(); ++p) {
    ShardStats stats = fleet->ShardStatsOf(p);
    EXPECT_EQ(stats.shard_count, 2u);
    EXPECT_GT(stats.messages_posted, 0u);
    EXPECT_EQ(stats.messages_delivered, stats.messages_posted);
    EXPECT_EQ(stats.undelivered, 0u);
    EXPECT_GT(stats.epochs, 0u);
  }
  // The fused reference reports no shard fabric at all.
  EXPECT_EQ(SerialReference().ShardStatsOf(0).shard_count, 0u);
}

TEST(FleetShardingTest, TotalsMatchLegacyAccessorsWhenFused) {
  FleetSimulation& fleet = SerialReference();
  uint64_t events = 0;
  for (size_t p = 0; p < fleet.platform_count(); ++p) {
    PlatformTotals totals = fleet.TotalsOf(p);
    EXPECT_EQ(totals.queries_completed,
              fleet.EngineOf(p).queries_completed());
    events += totals.events_executed;
    EXPECT_EQ(totals.completed_calls, fleet.RpcOf(p).completed_calls());
    EXPECT_EQ(totals.wasted_seconds, fleet.RpcOf(p).wasted_seconds());
    EXPECT_EQ(totals.fault_decisions, fleet.FaultsOf(p).decisions());
  }
  EXPECT_EQ(events, fleet.total_events_executed());
}

TEST(FleetShardingTest, MemoryStatsAccountSimulationState) {
  FleetMemoryStats stats = ShardedReference().MemoryStats();
  EXPECT_GT(stats.kernel_bytes, 0u);
  EXPECT_GT(stats.tracer_bytes, 0u);
  EXPECT_GT(stats.profiler_bytes, 0u);
  EXPECT_EQ(stats.total_bytes,
            stats.kernel_bytes + stats.tracer_bytes + stats.profiler_bytes);
  // Three platforms x four clusters x the default 64 hosts.
  EXPECT_EQ(stats.simulated_workers, 3u * 4u * 64u);
  EXPECT_GT(stats.bytes_per_worker, 0.0);
}

void ExpectContinuousIdentical(FleetSimulation& a, FleetSimulation& b) {
  ASSERT_EQ(a.platform_count(), b.platform_count());
  for (size_t p = 0; p < a.platform_count(); ++p) {
    const profiling::ContinuousProfiler* ca = a.ContinuousOf(p);
    const profiling::ContinuousProfiler* cb = b.ContinuousOf(p);
    ASSERT_NE(ca, nullptr);
    ASSERT_NE(cb, nullptr);
    EXPECT_EQ(ca->observed_queries(), cb->observed_queries()) << "p" << p;
    EXPECT_EQ(ca->first_window(), cb->first_window()) << "p" << p;
    EXPECT_EQ(ca->last_window(), cb->last_window()) << "p" << p;
    EXPECT_EQ(ca->windows_evicted(), cb->windows_evicted()) << "p" << p;
    for (int64_t w = ca->first_window(); w <= ca->last_window(); ++w) {
      const profiling::WindowSlot* sa = ca->WindowAt(w);
      const profiling::WindowSlot* sb = cb->WindowAt(w);
      ASSERT_EQ(sa == nullptr, sb == nullptr) << "p" << p << " w" << w;
      if (sa == nullptr) continue;
      EXPECT_EQ(sa->queries, sb->queries) << "p" << p << " w" << w;
      EXPECT_EQ(sa->total_nanos, sb->total_nanos) << "p" << p << " w" << w;
      for (size_t c = 0; c < profiling::kNumWindowCategories; ++c) {
        EXPECT_EQ(sa->sketches[c].bucket_counts(),
                  sb->sketches[c].bucket_counts())
            << "p" << p << " w" << w << " cat " << c;
      }
    }
    for (size_t c = 0; c < profiling::kNumWindowCategories; ++c) {
      auto cat = static_cast<profiling::WindowCategory>(c);
      EXPECT_EQ(ca->budget_stat(cat).windows_evaluated,
                cb->budget_stat(cat).windows_evaluated)
          << "p" << p << " cat " << c;
      EXPECT_EQ(ca->budget_stat(cat).overruns, cb->budget_stat(cat).overruns)
          << "p" << p << " cat " << c;
      EXPECT_EQ(ca->budget_stat(cat).worst_total_nanos,
                cb->budget_stat(cat).worst_total_nanos)
          << "p" << p << " cat " << c;
      // Quantiles are pure functions of the (equal) integer counts, so
      // exact double equality is the right bar.
      EXPECT_EQ(ca->RollingQuantile(cat, 0.5), cb->RollingQuantile(cat, 0.5))
          << "p" << p << " cat " << c;
      EXPECT_EQ(ca->RollingQuantile(cat, 0.99),
                cb->RollingQuantile(cat, 0.99))
          << "p" << p << " cat " << c;
    }
    ASSERT_EQ(ca->anomalies().size(), cb->anomalies().size()) << "p" << p;
    for (size_t i = 0; i < ca->anomalies().size(); ++i) {
      EXPECT_EQ(ca->anomalies()[i].window, cb->anomalies()[i].window);
      EXPECT_EQ(ca->anomalies()[i].category, cb->anomalies()[i].category);
      EXPECT_EQ(ca->anomalies()[i].total_nanos,
                cb->anomalies()[i].total_nanos);
    }
  }
}

TEST(FleetShardingTest, ContinuousProfilersSeeEveryQuery) {
  FleetSimulation& fleet = ShardedReference();
  for (size_t p = 0; p < fleet.platform_count(); ++p) {
    const profiling::ContinuousProfiler* continuous = fleet.ContinuousOf(p);
    ASSERT_NE(continuous, nullptr);
    // Sampled-only: the tracer feeds the window observer, so the window
    // totals cover exactly the sampled query population.
    EXPECT_EQ(continuous->observed_queries(), fleet.Result(p).queries_sampled);
    EXPECT_EQ(continuous->late_observations(), 0u);
    EXPECT_EQ(continuous->merge_drops(), 0u);
    EXPECT_GT(continuous->WindowsInHistory(), 0u);
    EXPECT_GT(continuous->RollingQuantile(profiling::WindowCategory::kLatency,
                                          0.5),
              0.0);
  }
}

TEST(FleetParallelTest, PlatformSeedsAreDistinctAndStable) {
  EXPECT_EQ(FleetSimulation::PlatformSeed(42, 0),
            FleetSimulation::PlatformSeed(42, 0));
  EXPECT_NE(FleetSimulation::PlatformSeed(42, 0),
            FleetSimulation::PlatformSeed(42, 1));
  EXPECT_NE(FleetSimulation::PlatformSeed(42, 0),
            FleetSimulation::PlatformSeed(43, 0));
}

}  // namespace
}  // namespace hyperprof::platforms
