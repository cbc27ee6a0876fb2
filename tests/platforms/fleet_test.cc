// Integration test: runs the full fleet characterization at reduced scale
// and asserts the profiling pipeline *recovers* the calibrated ground
// truth — the reproduction contract behind Figures 2-6 and Tables 6-7.
// The claims and their thresholds live in testing/recovery_claims.cc,
// which recovery_sweep_test also checks across seeds 1-16.

#include "platforms/fleet.h"

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "platforms/platforms.h"
#include "testing/recovery_claims.h"

namespace hyperprof::platforms {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FleetConfig config;
    config.queries_per_platform = 4000;
    config.trace_sample_one_in = 10;
    fleet_ = new FleetSimulation(config);
    fleet_->AddDefaultPlatforms();
    fleet_->RunAll();
  }
  static void TearDownTestSuite() {
    delete fleet_;
    fleet_ = nullptr;
  }

  static FleetSimulation* fleet_;
};

FleetSimulation* FleetTest::fleet_ = nullptr;

TEST_F(FleetTest, AllQueriesComplete) {
  EXPECT_TRUE(claims::AllHold(claims::QueriesComplete(*fleet_, 4000)));
}

TEST_F(FleetTest, BroadCycleSharesRecoverGroundTruth) {
  EXPECT_TRUE(claims::AllHold(claims::BroadCycleShares(*fleet_)));
}

TEST_F(FleetTest, FineCycleSharesRecoverGroundTruth) {
  EXPECT_TRUE(claims::AllHold(claims::FineCycleShares(*fleet_)));
}

TEST_F(FleetTest, MicroarchRecoversTable7) {
  EXPECT_TRUE(claims::AllHold(claims::MicroarchTable7(*fleet_)));
}

TEST_F(FleetTest, QueryGroupSharesMatchPaperClaims) {
  EXPECT_TRUE(claims::AllHold(claims::QueryGroupShares(*fleet_)));
}

TEST_F(FleetTest, CrossPlatformBalanceMatchesPaperClaim) {
  EXPECT_TRUE(claims::AllHold(claims::CrossPlatformBalance(*fleet_)));
}

TEST_F(FleetTest, BigTableOverallIsRemoteDominated) {
  EXPECT_TRUE(claims::AllHold(claims::BigTableRemoteDominated(*fleet_)));
}

TEST_F(FleetTest, SyncFactorEstimatesInUnitRange) {
  EXPECT_TRUE(claims::AllHold(claims::SyncFactors(*fleet_)));
}

TEST_F(FleetTest, StorageTiersActuallyExercised) {
  EXPECT_TRUE(claims::AllHold(claims::StorageTiers(*fleet_)));
}

TEST_F(FleetTest, SpannerConsensusSpansComeFromRealPaxos) {
  EXPECT_TRUE(claims::AllHold(claims::SpannerConsensusSpans(*fleet_)));
}

TEST_F(FleetTest, BigQueryShuffleSpansComeFromRealShuffle) {
  EXPECT_TRUE(claims::AllHold(claims::BigQueryShuffleSpans(*fleet_)));
}

FleetConfig FaultedConfig() {
  FleetConfig config;
  config.queries_per_platform = 300;
  config.trace_sample_one_in = 5;
  // Light but ever-present faults plus one fileserver dead for the whole
  // run, with retry + hedge policies on the DFS paths.
  config.fault.drop_probability = 0.01;
  config.fault.error_probability = 0.01;
  config.fault.slowdown_probability = 0.03;
  config.outages.push_back({net::NodeId{0, 100, 2}, SimTime::Zero(),
                            SimTime::FromSeconds(100)});
  config.dfs.read_policy.timeout = SimTime::Millis(50);
  config.dfs.read_policy.max_attempts = 3;
  config.dfs.read_policy.hedge_delay = SimTime::Millis(10);
  config.dfs.write_policy.timeout = SimTime::Millis(100);
  config.dfs.write_policy.max_attempts = 2;
  return config;
}

TEST(FaultedFleetTest, FaultedRunCompletesAndTracksResilience) {
  FleetSimulation fleet(FaultedConfig());
  fleet.AddDefaultPlatforms();
  fleet.RunAll();
  uint64_t injected = 0, outage_hits = 0, retries = 0, hedges = 0;
  uint64_t annotations = 0;
  for (size_t p = 0; p < 3; ++p) {
    // Every query still completes — failures surface as Status, never as
    // a hung barrier — and the tracer loses nothing under retries.
    EXPECT_EQ(fleet.Result(p).queries_completed, 300u);
    EXPECT_EQ(fleet.TracerOf(p).dropped_finishes(), 0u);
    EXPECT_EQ(fleet.TracerOf(p).dropped_spans(), 0u);
    EXPECT_EQ(fleet.TracerOf(p).open_traces(), 0u);
    EXPECT_TRUE(fleet.FaultsOf(p).armed());
    injected += fleet.FaultsOf(p).injected_total();
    outage_hits += fleet.FaultsOf(p).outage_hits();
    retries += fleet.RpcOf(p).retries_issued();
    hedges += fleet.RpcOf(p).hedges_issued();
    profiling::ResilienceReport report = profiling::ComputeResilienceReport(
        fleet.TracesOf(p), fleet.NamesOf(p));
    annotations +=
        report.retry_spans + report.hedge_spans + report.error_spans;
    EXPECT_GE(report.wasted_seconds, 0.0);
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(outage_hits, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(hedges, 0u);
  // Sampled traces carry the retry/hedge/error annotations the
  // resilience report mines.
  EXPECT_GT(annotations, 0u);
}

TEST(FaultedFleetTest, SerialAndParallelFaultedRunsBitIdentical) {
  // PR 1's serial==parallel contract must hold with faults armed: fault
  // draws come from per-shard private streams, so thread scheduling can
  // never perturb them.
  auto signature = [](uint32_t parallelism) {
    FleetConfig config = FaultedConfig();
    config.parallelism = parallelism;
    FleetSimulation fleet(config);
    fleet.AddDefaultPlatforms();
    fleet.RunAll();
    std::vector<double> values;
    for (size_t p = 0; p < 3; ++p) {
      const auto& overall = fleet.Result(p).e2e.overall;
      values.push_back(overall.time.cpu);
      values.push_back(overall.time.io);
      values.push_back(overall.time.remote);
      values.push_back(static_cast<double>(fleet.FaultsOf(p).decisions()));
      values.push_back(
          static_cast<double>(fleet.FaultsOf(p).injected_total()));
      values.push_back(static_cast<double>(fleet.RpcOf(p).retries_issued()));
      values.push_back(static_cast<double>(fleet.RpcOf(p).hedge_wins()));
      values.push_back(fleet.RpcOf(p).wasted_seconds());
    }
    return values;
  };
  std::vector<double> serial = signature(1);
  std::vector<double> parallel = signature(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "signature index " << i;
  }
}

TEST(FleetMemoryTest, ProfilerBytesDoNotDependOnRunLength) {
  // Samples fold into per-symbol rows as they are recorded, so the CPU
  // profiler holds the same bytes after 8x the queries.
  auto run = [](uint64_t queries) {
    FleetConfig config;
    config.queries_per_platform = queries;
    config.parallelism = 1;
    auto fleet = std::make_unique<FleetSimulation>(config);
    PlatformSpec spec = SpannerSpec();
    spec.block_space = 1 << 10;
    fleet->AddPlatform(std::move(spec));
    fleet->RunAll();
    return fleet;
  };
  auto short_run = run(250);
  auto long_run = run(2000);
  const profiling::CpuProfiler& short_profiler = short_run->ProfilerOf(0);
  const profiling::CpuProfiler& long_profiler = long_run->ProfilerOf(0);
  EXPECT_GT(long_profiler.samples().size(),
            4 * short_profiler.samples().size());
  EXPECT_EQ(long_profiler.memory_bytes(), short_profiler.memory_bytes());
}

}  // namespace
}  // namespace hyperprof::platforms
