// Integration test: runs the full fleet characterization at reduced scale
// and asserts the profiling pipeline *recovers* the calibrated ground
// truth — the reproduction contract behind Figures 2-6 and Tables 6-7.

#include "platforms/fleet.h"

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "platforms/platforms.h"
#include "profiling/categories.h"

namespace hyperprof::platforms {
namespace {

using profiling::BroadCategory;
using profiling::BroadOf;
using profiling::FnCategory;

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
  for (size_t i = 0; i < fleet_->platform_count(); ++i) {
    PlatformResult result = fleet_->Result(i);
    EXPECT_EQ(result.queries_completed, 4000u) << result.name;
    EXPECT_GT(result.queries_sampled, 300u) << result.name;
  }
}

TEST_F(FleetTest, BroadCycleSharesRecoverGroundTruth) {
  const PlatformSpec specs[] = {SpannerSpec(), BigTableSpec(),
                                BigQuerySpec()};
  for (size_t p = 0; p < 3; ++p) {
    PlatformResult result = fleet_->Result(p);
    double truth[3] = {0, 0, 0};
    for (size_t i = 0; i < profiling::kNumFnCategories; ++i) {
      truth[static_cast<int>(BroadOf(static_cast<FnCategory>(i)))] +=
          specs[p].compute_mix[i];
    }
    for (int b = 0; b < 3; ++b) {
      EXPECT_NEAR(
          result.cycles.BroadFraction(static_cast<BroadCategory>(b)),
          truth[b], 0.03)
          << result.name << " broad " << b;
    }
  }
}

TEST_F(FleetTest, FineCycleSharesRecoverGroundTruth) {
  const PlatformSpec specs[] = {SpannerSpec(), BigTableSpec(),
                                BigQuerySpec()};
  for (size_t p = 0; p < 3; ++p) {
    PlatformResult result = fleet_->Result(p);
    for (size_t i = 0; i < profiling::kNumFnCategories; ++i) {
      FnCategory category = static_cast<FnCategory>(i);
      EXPECT_NEAR(result.cycles.FineFractionOfTotal(category),
                  specs[p].compute_mix[i], 0.02)
          << result.name << " " << profiling::FnCategoryName(category);
    }
  }
}

TEST_F(FleetTest, MicroarchRecoversTable7) {
  const PlatformSpec specs[] = {SpannerSpec(), BigTableSpec(),
                                BigQuerySpec()};
  for (size_t p = 0; p < 3; ++p) {
    PlatformResult result = fleet_->Result(p);
    for (int b = 0; b < 3; ++b) {
      const auto& truth = specs[p].microarch[b];
      const auto& measured = result.microarch.by_broad[b];
      EXPECT_NEAR(measured.Ipc(), truth.ipc, 0.05)
          << result.name << " broad " << b;
      EXPECT_NEAR(measured.BrMpki(), truth.br_mpki,
                  0.05 * truth.br_mpki + 0.1);
      EXPECT_NEAR(measured.L1iMpki(), truth.l1i_mpki,
                  0.05 * truth.l1i_mpki + 0.1);
      EXPECT_NEAR(measured.DtlbLdMpki(), truth.dtlb_ld_mpki,
                  0.05 * truth.dtlb_ld_mpki + 0.1);
    }
  }
}

TEST_F(FleetTest, QueryGroupSharesMatchPaperClaims) {
  // Section 4.2: >60% of Spanner/BigTable queries CPU heavy, ~10% for
  // BigQuery.
  PlatformResult spanner = fleet_->Result("Spanner");
  PlatformResult bigtable = fleet_->Result("BigTable");
  PlatformResult bigquery = fleet_->Result("BigQuery");
  EXPECT_GT(spanner.e2e.QueryShare(profiling::QueryGroup::kCpuHeavy), 0.60);
  EXPECT_GT(bigtable.e2e.QueryShare(profiling::QueryGroup::kCpuHeavy),
            0.60);
  EXPECT_LT(bigquery.e2e.QueryShare(profiling::QueryGroup::kCpuHeavy),
            0.25);
  EXPECT_GT(bigquery.e2e.QueryShare(profiling::QueryGroup::kIoHeavy), 0.4);
}

TEST_F(FleetTest, CrossPlatformBalanceMatchesPaperClaim) {
  // Section 4.2: across platforms, queries spend ~48% on compute and ~52%
  // on remote work + storage combined (query-weighted mean; generous
  // tolerance for the simulated substrate).
  double cpu = 0, dep = 0;
  for (size_t i = 0; i < fleet_->platform_count(); ++i) {
    auto mean = fleet_->Result(i).e2e.overall.MeanQueryFractions();
    cpu += mean.cpu;
    dep += mean.io + mean.remote;
  }
  cpu /= 3;
  dep /= 3;
  EXPECT_NEAR(cpu, 0.48, 0.10);
  EXPECT_NEAR(dep, 0.52, 0.10);
}

TEST_F(FleetTest, BigTableOverallIsRemoteDominated) {
  // Remote compaction waits dominate BigTable's time-weighted average —
  // the source of the paper's enormous Figure 9 upper bound.
  PlatformResult bigtable = fleet_->Result("BigTable");
  EXPECT_GT(bigtable.e2e.overall.Fractions().remote, 0.9);
  EXPECT_LT(bigtable.e2e.overall.Fractions().cpu, 0.05);
}

TEST_F(FleetTest, SyncFactorEstimatesInUnitRange) {
  for (size_t i = 0; i < fleet_->platform_count(); ++i) {
    double f = profiling::EstimateSyncFactor(fleet_->TracesOf(i));
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // Platforms with pipelined scans (Spanner, BigQuery) overlap CPU with
  // IO, so f < 1; BigTable phases are strictly serial.
  EXPECT_LT(profiling::EstimateSyncFactor(fleet_->TracesOf(0)), 0.999);
  EXPECT_GT(profiling::EstimateSyncFactor(fleet_->TracesOf(1)), 0.999);
}

TEST_F(FleetTest, StorageTiersActuallyExercised) {
  // The paper observes reads hitting SSD more than HDD; with warmed
  // caches our substrate reproduces that ordering for the databases.
  PlatformResult spanner = fleet_->Result("Spanner");
  PlatformResult bigquery = fleet_->Result("BigQuery");
  EXPECT_LT(spanner.e2e.overall.MeanQueryFractions().io,
            bigquery.e2e.overall.MeanQueryFractions().io);
  // Direct tier counters: every tier serves reads, and for the databases
  // SSD serves more than HDD (Section 3's observation).
  for (size_t p = 0; p < 2; ++p) {
    const auto& dfs = fleet_->DfsOf(p);
    double ram = dfs.TierServeFraction(storage::Tier::kRam);
    double ssd = dfs.TierServeFraction(storage::Tier::kSsd);
    double hdd = dfs.TierServeFraction(storage::Tier::kHdd);
    EXPECT_GT(ram, 0.3) << p;
    EXPECT_GT(ssd, hdd) << p;
    EXPECT_NEAR(ram + ssd + hdd, 1.0, 1e-9) << p;
  }
}

TEST_F(FleetTest, SpannerConsensusSpansComeFromRealPaxos) {
  // Every sampled read_write_txn / global_commit trace must contain a
  // consensus remote-work span produced by an actual Paxos round.
  const auto& traces = fleet_->TracesOf(0);
  profiling::NameId consensus_id = fleet_->NamesOf(0).Find("consensus");
  ASSERT_NE(consensus_id, profiling::kInvalidNameId);
  int consensus_spans = 0;
  for (const auto& trace : traces) {
    for (const auto& span : trace.spans) {
      if (span.kind == profiling::SpanKind::kRemoteWork &&
          span.name == consensus_id) {
        ++consensus_spans;
        // A Paxos round needs at least two message exchanges plus
        // acceptor service; anything under ~200us would mean the
        // protocol did not actually run.
        EXPECT_GT(span.end - span.start, SimTime::Micros(200));
      }
    }
  }
  EXPECT_GT(consensus_spans, 50);
}

TEST_F(FleetTest, BigQueryShuffleSpansComeFromRealShuffle) {
  const auto& traces = fleet_->TracesOf(2);
  profiling::NameId shuffle_id = fleet_->NamesOf(2).Find("shuffle");
  ASSERT_NE(shuffle_id, profiling::kInvalidNameId);
  int shuffle_spans = 0;
  for (const auto& trace : traces) {
    for (const auto& span : trace.spans) {
      if (span.kind == profiling::SpanKind::kRemoteWork &&
          span.name == shuffle_id) {
        ++shuffle_spans;
        // 8 mappers x 64 MiB through the fabric takes tens of ms.
        EXPECT_GT(span.end - span.start, SimTime::Millis(10));
      }
    }
  }
  EXPECT_GT(shuffle_spans, 20);
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
