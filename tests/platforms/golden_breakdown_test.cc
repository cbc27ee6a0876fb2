// Golden regression gate for the trace pipeline: the breakdown numbers a
// fixed fleet configuration recovers must stay bit-identical across
// pipeline rewrites. The constants below were last captured when block
// draws moved to rejection-inversion and Spanner's query weights were
// re-fit, with %.17g formatting, so every double round-trips exactly; the
// pipeline must reproduce them to the last bit, through both the
// streaming accumulator and the batch Compute* functions.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platforms/fleet.h"
#include "profiling/aggregate.h"

namespace hyperprof::platforms {
namespace {

struct GoldenAggregate {
  double cpu, io, remote;        // summed attributed seconds
  double f_cpu, f_io, f_remote;  // summed per-query fractions
  uint64_t count;
};

struct GoldenTypeRow {
  const char* name;
  double cpu, io, remote;
  uint64_t count;
};

struct GoldenFine {
  int broad;
  int category;
  double fraction_within_broad;
};

struct GoldenPlatform {
  const char* name;
  GoldenAggregate groups[profiling::kNumQueryGroups];
  GoldenAggregate overall;
  std::vector<GoldenTypeRow> types;  // descending total time
  double sync_factor;
  std::vector<GoldenFine> fine;
};

const GoldenPlatform kGolden[] = {
    {"Spanner",
     {{0.75902481800000099, 0.065574077000000008, 0.081488616999999999,
       169.49474879328321, 17.93978696246743, 11.565464244249281, 199},
      {0.029184234000000007, 0.22450142600000003, 0.0024906899999999998,
       8.5943962059531245, 40.91830632854797, 0.48729746549889558, 50},
      {0.06923348, 0.010776591000000002, 0.10490334500000004,
       15.065274453844507, 2.8850661152250394, 21.049659430930454, 39},
      {0.011401351000000002, 0.0044773080000000002, 0.0051520790000000004,
       3.7553875231887863, 1.5633297594846667, 1.6812827173265472, 7}},
     {0.86884388300000126, 0.30532940200000019, 0.19403473099999999,
       196.90980697626941, 63.306489165725075, 34.78370385800519, 295},
     {{"point_read", 0.4630531599999998, 0.06257392199999999, 0, 148},
      {"read_write_txn", 0.33323149099999999, 0.026878398000000012,
       0.10284578600000004, 66},
      {"range_scan", 0.017762487, 0.188754279, 0, 45},
      {"global_commit", 0.024183665, 0, 0.07217596300000001, 17},
      {"mixed", 0.030613080000000001, 0.027122803000000001,
       0.019012982000000001, 19}},
     0.80960750460809028,
     {{1, 15, 0.14351547070441079},
      {1, 16, 0.076366030283080977},
      {1, 17, 0.16326530612244897},
      {1, 18, 0.14154048716260698},
      {1, 19, 0.23568136932192232},
      {1, 20, 0.23963133640552994},
      {2, 21, 0.012328767123287671},
      {2, 22, 0.090410958904109592},
      {2, 23, 0.033561643835616439},
      {2, 24, 0.052739726027397259},
      {2, 25, 0.063013698630136991},
      {2, 26, 0.28835616438356165},
      {2, 27, 0.42397260273972603},
      {2, 28, 0.035616438356164383}}},
    {"BigTable",
     {{0.49238319699999994, 0.093625153000000044, 0,
       191.35892450048885, 37.641075499511189, 0, 229},
      {0.070850948000000011, 0.19748154000000001, 0.0035794380000000003,
       15.003288350291809, 23.768465372842797, 0.22824627686539325, 39},
      {0.091795011000000024, 0.0083660460000000002, 278.47211505600001,
       9.8364916680127212, 2.4698493928091025, 26.693658939178182, 39},
      {0, 0, 0,
       0, 0, 0, 0}},
     {0.65502915600000045, 0.29947273899999993, 278.47569449400004,
       216.19870451879336, 63.879390265163075, 26.921905216043577, 307},
     {{"compaction_wait", 0.058127616, 0, 278.41791806000003, 12},
      {"point_get", 0.294705567, 0.068047179000000027, 0, 151},
      {"scan", 0.12107370900000003, 0.18826098000000002, 0, 56},
      {"put", 0.14688345799999999, 0.023267033000000003, 0, 60},
      {"mixed", 0.034238806000000004, 0.019897547000000002,
       0.057776434000000008, 28}},
     0.99999999999984923,
     {{1, 15, 0.29118773946360155},
      {1, 16, 0.024521072796934867},
      {1, 17, 0.054406130268199231},
      {1, 18, 0.043678160919540229},
      {1, 19, 0.20689655172413793},
      {1, 20, 0.37931034482758619},
      {2, 21, 0.024953789279112754},
      {2, 22, 0.15711645101663585},
      {2, 23, 0.054528650646950096},
      {2, 24, 0.048059149722735672},
      {2, 25, 0.086876155268022184},
      {2, 26, 0.23382624768946395},
      {2, 27, 0.34750462107208874},
      {2, 28, 0.047134935304990758}}},
    {"BigQuery",
     {{0.95505827300000012, 0.18765393300000008, 0.028845051000000003,
       32.761111933895037, 5.6111107507512479, 3.6277773153537245, 42},
      {0.4121477349999999, 3.9101963569999998, 0.057809459000000007,
       23.140143808110924, 130.53145108560724, 3.328405106281799, 157},
      {2.1876716759999999, 1.4586350710000004, 4.445292524000001,
       19.91109193440597, 12.610419715183637, 39.478488350410387, 72},
      {0, 0, 0,
       0, 0, 0, 0}},
     {3.5548776840000018, 5.5564853609999991, 4.5319470340000017,
       75.81234767641196, 148.75298155154212, 46.434670772045912, 271},
     {{"shuffle_join", 2.1739239499999998, 1.4567748290000002,
       4.4338880590000009, 68},
      {"large_scan", 0.089582911000000015, 3.2206188409999998, 0, 85},
      {"interactive_agg", 0.83241696900000006, 0.19838224800000004, 0, 25},
      {"lookup", 0.298867255, 0.25418334800000009, 0.09805897500000002, 49},
      {"export", 0.16008659900000008, 0.42652609499999999, 0, 44}},
     0.67494477634488304,
     {{1, 15, 0.30985429778429174},
      {1, 16, 0.051987240279334428},
      {1, 17, 0.15544443486507459},
      {1, 18, 0.12061384602120873},
      {1, 19, 0.24803862401931201},
      {1, 20, 0.11406155703077851},
      {2, 21, 0.020247194665799318},
      {2, 22, 0.097576841762888278},
      {2, 23, 0.038868108635550493},
      {2, 24, 0.047975280533420067},
      {2, 25, 0.043746950723694909},
      {2, 26, 0.18141161164416977},
      {2, 27, 0.53065539112050741},
      {2, 28, 0.039518620913969751}}},
};

void ExpectAggregateEq(const profiling::GroupAggregate& got,
                       const GoldenAggregate& want, const char* what) {
  EXPECT_EQ(got.time.cpu, want.cpu) << what;
  EXPECT_EQ(got.time.io, want.io) << what;
  EXPECT_EQ(got.time.remote, want.remote) << what;
  EXPECT_EQ(got.fraction_sum.cpu, want.f_cpu) << what;
  EXPECT_EQ(got.fraction_sum.io, want.f_io) << what;
  EXPECT_EQ(got.fraction_sum.remote, want.f_remote) << what;
  EXPECT_EQ(got.query_count, want.count) << what;
}

class GoldenBreakdownTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FleetConfig config;
    config.queries_per_platform = 1500;
    config.trace_sample_one_in = 5;
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

FleetSimulation* GoldenBreakdownTest::fleet_ = nullptr;

TEST_F(GoldenBreakdownTest, StreamingE2eMatchesSeedBitForBit) {
  for (size_t p = 0; p < 3; ++p) {
    const GoldenPlatform& golden = kGolden[p];
    PlatformResult result = fleet_->Result(p);
    ASSERT_EQ(result.name, golden.name);
    for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
      ExpectAggregateEq(result.e2e.groups[g], golden.groups[g], golden.name);
    }
    ExpectAggregateEq(result.e2e.overall, golden.overall, golden.name);
  }
}

TEST_F(GoldenBreakdownTest, BatchE2eOverRetainedTracesMatchesStreaming) {
  for (size_t p = 0; p < 3; ++p) {
    profiling::E2eBreakdownReport batch =
        profiling::ComputeE2eBreakdown(fleet_->TracesOf(p));
    const profiling::E2eBreakdownReport& streaming =
        fleet_->TracerOf(p).breakdown().e2e();
    for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
      EXPECT_EQ(batch.groups[g].time.cpu, streaming.groups[g].time.cpu);
      EXPECT_EQ(batch.groups[g].fraction_sum.remote,
                streaming.groups[g].fraction_sum.remote);
      EXPECT_EQ(batch.groups[g].query_count, streaming.groups[g].query_count);
    }
    EXPECT_EQ(batch.overall.time.io, streaming.overall.time.io);
  }
}

TEST_F(GoldenBreakdownTest, PerTypeRowsMatchSeedBitForBit) {
  for (size_t p = 0; p < 3; ++p) {
    const GoldenPlatform& golden = kGolden[p];
    // Both the streaming rows and the batch recomputation must agree with
    // the seed capture.
    auto streaming =
        fleet_->TracerOf(p).breakdown().TypeRows(fleet_->NamesOf(p));
    auto batch = profiling::ComputePerTypeBreakdown(fleet_->TracesOf(p),
                                                    fleet_->NamesOf(p));
    for (const auto* rows : {&streaming, &batch}) {
      ASSERT_EQ(rows->size(), golden.types.size()) << golden.name;
      for (size_t i = 0; i < golden.types.size(); ++i) {
        const auto& got = (*rows)[i];
        const auto& want = golden.types[i];
        EXPECT_EQ(got.query_type, want.name) << golden.name;
        EXPECT_EQ(got.aggregate.time.cpu, want.cpu) << want.name;
        EXPECT_EQ(got.aggregate.time.io, want.io) << want.name;
        EXPECT_EQ(got.aggregate.time.remote, want.remote) << want.name;
        EXPECT_EQ(got.aggregate.query_count, want.count) << want.name;
      }
    }
  }
}

TEST_F(GoldenBreakdownTest, SyncFactorMatchesSeedBitForBit) {
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(fleet_->TracerOf(p).breakdown().EstimatedSyncFactor(),
              kGolden[p].sync_factor)
        << kGolden[p].name;
    EXPECT_EQ(profiling::EstimateSyncFactor(fleet_->TracesOf(p)),
              kGolden[p].sync_factor)
        << kGolden[p].name;
  }
}

TEST_F(GoldenBreakdownTest, CycleFineFractionsMatchSeedBitForBit) {
  for (size_t p = 0; p < 3; ++p) {
    const GoldenPlatform& golden = kGolden[p];
    PlatformResult result = fleet_->Result(p);
    for (const GoldenFine& fine : golden.fine) {
      EXPECT_EQ(result.cycles.FineFractionWithinBroad(
                    static_cast<profiling::FnCategory>(fine.category)),
                fine.fraction_within_broad)
          << golden.name << " category " << fine.category;
    }
  }
}

TEST_F(GoldenBreakdownTest, FaultInjectionDisabledIsProvablyInert) {
  // The fault model is installed on every shard, but an all-zero spec
  // leaves it un-armed: the RPC fabric never consults it, no resilience
  // counter moves, and no annotation span exists in any trace. Together
  // with the bit-identical goldens above, this pins the RNG-stream
  // contract of DESIGN.md §10 — fault injection is zero-perturbation
  // when off.
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_FALSE(fleet_->FaultsOf(p).armed());
    EXPECT_EQ(fleet_->FaultsOf(p).decisions(), 0u);
    EXPECT_EQ(fleet_->FaultsOf(p).injected_total(), 0u);
    EXPECT_EQ(fleet_->RpcOf(p).failed_calls(), 0u);
    EXPECT_EQ(fleet_->RpcOf(p).retries_issued(), 0u);
    EXPECT_EQ(fleet_->RpcOf(p).hedges_issued(), 0u);
    EXPECT_EQ(fleet_->RpcOf(p).timeouts_fired(), 0u);
    EXPECT_EQ(fleet_->RpcOf(p).cancelled_attempts(), 0u);
    EXPECT_EQ(fleet_->RpcOf(p).wasted_seconds(), 0.0);
    EXPECT_EQ(fleet_->EngineOf(p).io_failures(), 0u);
    profiling::ResilienceReport report = profiling::ComputeResilienceReport(
        fleet_->TracesOf(p), fleet_->NamesOf(p));
    EXPECT_EQ(report.retry_spans, 0u);
    EXPECT_EQ(report.hedge_spans, 0u);
    EXPECT_EQ(report.error_spans, 0u);
    EXPECT_EQ(report.queries_with_faulted_io, 0u);
    EXPECT_EQ(report.wasted_seconds, 0.0);
  }
}

TEST_F(GoldenBreakdownTest, NoDroppedHandles) {
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(fleet_->TracerOf(p).dropped_finishes(), 0u);
    EXPECT_EQ(fleet_->TracerOf(p).dropped_spans(), 0u);
    EXPECT_EQ(fleet_->TracerOf(p).open_traces(), 0u);
  }
}

}  // namespace
}  // namespace hyperprof::platforms
