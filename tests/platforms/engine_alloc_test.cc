// Pins the allocation-free run path on the three paper specs (DESIGN.md
// §18): once an engine and its substrate are warm, its queries — compute
// activities, DFS reads and quorum writes, RPC fan-outs, shuffles and
// Paxos rounds — perform ZERO heap allocations.
//
// Each test wires one fused platform the way FleetSimulation does (one
// kernel, one RpcSystem, the DFS behind a DirectIoPort, prewarmed caches),
// runs a warm-up batch to completion, then counts
// every allocation across the next batch on the same engine, at
// FleetConfig's default arrival rate.
//
// What warm-up grows, and so what this count leaves out, is live state
// reaching a new high-water mark, never a per-query cost:
//   - the record pools (RPC exchanges and policy calls, DFS reads and
//     writes, IO waves, remote phases, phase groups), the query states and
//     the event heap grow to the most records ever live at once. The
//     warm-up runs at twice the counted rate, so it holds about twice the
//     counted batch's live set;
//   - each cache's index grows by doubling until it has installed every
//     block it will hold. The block space is 256 blocks, which the warm-up
//     covers; at 1 << 14 blocks the indexes still grow during the counted
//     batch (4 reallocations for Spanner, 24 for BigTable, 0 for BigQuery
//     at this seed), bounded by the block space, not by the query count.
// Trace storage is left out too, as in serve_alloc_test: the tracer never
// samples (a sampled query stores its spans, which grow by doubling). The
// CPU profiler samples at FleetConfig's default 1 ms period; each sample
// folds into its symbol's row, which the engine interned at construction,
// so sampling stores nothing.
//
// The sharded cases run a 3-shard FleetSimulation, whose engines reach the
// DFS through the shard fabric, and count allocations per DFS IO over the
// second half of the run. The second half still grows the pools, the
// mailboxes and the heaps to new high-water marks now and then, so the
// count is a small rate, not zero: about 0.005 for Spanner and 0.002 for
// BigQuery, where a fabric that allocated a record per IO would read
// 0.7-0.9.
//
// This binary replaces the global allocator with the counting shim in
// testing/counting_new.h, so it is its own test executable.

#include <cstdint>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "platforms/engine.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "profiling/function_registry.h"
#include "storage/provisioning.h"
#include "testing/counting_new.h"

namespace hyperprof::platforms {
namespace {

constexpr uint64_t kWarmupQueries = 8000;
constexpr uint64_t kCountedQueries = 1000;
constexpr double kArrivalRateQps = 2000;  // FleetConfig's default
constexpr SimTime kProfilerPeriod = SimTime::Micros(1000);  // its default
constexpr double kWarmupRateQps = 2 * kArrivalRateQps;
constexpr uint64_t kShardedQueries = 4000;
constexpr double kMaxShardedAllocsPerIo = 0.02;

PlatformSpec SmallBlockSpace(PlatformSpec spec) {
  spec.block_space = 1 << 8;  // see the top of this file
  return spec;
}

/** Allocations and completions of the counted batch. */
struct Count {
  uint64_t allocations = 0;
  uint64_t queries = 0;
};

/** A fused platform's substrate and engine, as FleetSimulation wires it. */
class FusedPlatform {
 public:
  explicit FusedPlatform(PlatformSpec spec)
      : spec_(SmallBlockSpace(std::move(spec))),
        rpc_(&simulator_, &network_, Rng(2)),
        dfs_(&simulator_, &rpc_, storage::DfsParams(), Rng(3)),
        io_(&dfs_),
        tracer_(1u << 30, Rng(4)),
        profiler_(kProfilerPeriod, 3e9, Rng(5)),
        registry_(profiling::BuildFleetRegistry()) {
    dfs_.PrewarmZipf(
        storage::MinKeysForMass(spec_.ram_hit_target, spec_.block_space,
                                spec_.block_zipf_s),
        storage::MinKeysForMass(spec_.ram_ssd_hit_target, spec_.block_space,
                                spec_.block_zipf_s),
        spec_.typical_block_bytes);
    EngineContext context;
    context.simulator = &simulator_;
    context.io = &io_;
    context.rpc = &rpc_;
    context.tracer = &tracer_;
    context.profiler = &profiler_;
    context.registry = &registry_;
    engine_ = std::make_unique<PlatformEngine>(context, spec_, Rng(7));
  }

  /** Runs `queries` arrivals to completion; counts what they allocate. */
  Count RunBatch(uint64_t queries, double rate_qps) {
    const uint64_t completed = engine_->queries_completed();
    const uint64_t before = g_allocation_count.load();
    engine_->Run(queries, rate_qps);
    simulator_.Run();
    Count count;
    count.allocations = g_allocation_count.load() - before;
    count.queries = engine_->queries_completed() - completed;
    return count;
  }

 private:
  PlatformSpec spec_;
  sim::Simulator simulator_;
  net::NetworkModel network_;
  net::RpcSystem rpc_;
  storage::DistributedFileSystem dfs_;
  DirectIoPort io_;
  profiling::Tracer tracer_;
  profiling::CpuProfiler profiler_;
  profiling::FunctionRegistry registry_;
  std::unique_ptr<PlatformEngine> engine_;
};

Count CountWarmedBatch(PlatformSpec spec) {
  FusedPlatform platform(std::move(spec));
  const Count warmup = platform.RunBatch(kWarmupQueries, kWarmupRateQps);
  EXPECT_EQ(warmup.queries, kWarmupQueries);
  return platform.RunBatch(kCountedQueries, kArrivalRateQps);
}

/** Reads plus writes served by every fileserver of `dfs`. */
uint64_t DfsIos(const storage::DistributedFileSystem& dfs) {
  uint64_t ios = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    ios += dfs.server_store(s).reads() + dfs.server_store(s).writes();
  }
  return ios;
}

/**
 * Allocations per DFS IO across the second half of a 3-shard platform's
 * run, after an Advance to half its arrival span.
 */
double ShardedAllocationsPerIo(PlatformSpec spec) {
  FleetConfig config;
  config.queries_per_platform = kShardedQueries;
  config.arrival_rate_qps = kArrivalRateQps;
  config.shards_per_platform = 3;
  config.parallelism = 1;
  config.trace_sample_one_in = 1u << 30;
  config.continuous_window = SimTime::Zero();
  FleetSimulation fleet(config);
  fleet.AddPlatform(SmallBlockSpace(std::move(spec)));
  fleet.Start();
  fleet.Advance(SimTime::FromSeconds(0.5 * kShardedQueries / kArrivalRateQps));
  const uint64_t ios_before = DfsIos(fleet.DfsOf(0));
  const uint64_t before = g_allocation_count.load();
  fleet.Advance(SimTime::Max());
  const uint64_t allocations = g_allocation_count.load() - before;
  const uint64_t ios = DfsIos(fleet.DfsOf(0)) - ios_before;
  fleet.Finish();
  EXPECT_EQ(fleet.TotalsOf(0).queries_completed, kShardedQueries);
  EXPECT_GT(ios, 0u);
  return static_cast<double>(allocations) / static_cast<double>(ios);
}

TEST(EngineAllocTest, SpannerWarmedQueriesAllocateNothing) {
  const Count count = CountWarmedBatch(SpannerSpec());
  EXPECT_EQ(count.queries, kCountedQueries);
  EXPECT_EQ(count.allocations, 0u);
}

TEST(EngineAllocTest, BigTableWarmedQueriesAllocateNothing) {
  const Count count = CountWarmedBatch(BigTableSpec());
  EXPECT_EQ(count.queries, kCountedQueries);
  EXPECT_EQ(count.allocations, 0u);
}

TEST(EngineAllocTest, BigQueryWarmedQueriesAllocateNothing) {
  const Count count = CountWarmedBatch(BigQuerySpec());
  EXPECT_EQ(count.queries, kCountedQueries);
  EXPECT_EQ(count.allocations, 0u);
}

// BigTable is left out: its 15 s compaction_wait queries outlive this run,
// so its live records grow through the second half, fused or sharded.
TEST(EngineAllocTest, SpannerShardFabricAllocatesNothingPerIo) {
  EXPECT_LT(ShardedAllocationsPerIo(SpannerSpec()), kMaxShardedAllocsPerIo);
}

TEST(EngineAllocTest, BigQueryShardFabricAllocatesNothingPerIo) {
  EXPECT_LT(ShardedAllocationsPerIo(BigQuerySpec()), kMaxShardedAllocsPerIo);
}

}  // namespace
}  // namespace hyperprof::platforms
