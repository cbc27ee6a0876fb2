// Small-N recovery of the paper's headline tables, with the documented
// tolerances (EXPERIMENTS.md): Table 1 storage ratios within 35% relative,
// Table 6 IPC/MPKI near the published per-platform values, and Table 8
// chained-accelerator validation within the model-tracking band. Tagged
// `slow` in ctest: it performs real fleet and SoC runs.

#include <gtest/gtest.h>

#include <cmath>

#include "core/accel_model.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "soc/chained_soc.h"
#include "soc/host_pipeline.h"
#include "storage/provisioning.h"
#include "testing/recovery_claims.h"

namespace hyperprof {
namespace {

// Relative closeness helper: |got - want| / want <= tol.
::testing::AssertionResult Within(double got, double want, double tol) {
  double rel = std::fabs(got - want) / want;
  if (rel <= tol) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got " << got << ", want " << want << " (+/-" << tol * 100
         << "%), off by " << rel * 100 << "%";
}

// --- Table 1: storage-to-storage ratios ---------------------------------

struct Table1Row {
  storage::StorageProfile profile;
  double paper_ssd_per_ram;
  double paper_hdd_per_ram;
};

TEST(PaperRecovery, Table1StorageRatios) {
  // Paper Table 1: RAM : SSD : HDD of 1:16:164 (Spanner), 1:7:777
  // (BigTable), 1:8:90 (BigQuery). The capacity-planning model recovers
  // these within 35% relative (EXPERIMENTS.md).
  const Table1Row rows[] = {
      {platforms::SpannerStorageProfile(), 16, 164},
      {platforms::BigTableStorageProfile(), 7, 777},
      {platforms::BigQueryStorageProfile(), 8, 90},
  };
  for (const auto& row : rows) {
    storage::TierSizes sizes = storage::ProvisionForProfile(row.profile);
    EXPECT_GT(sizes.ram_bytes, 0) << row.profile.platform;
    EXPECT_TRUE(Within(sizes.SsdPerRam(), row.paper_ssd_per_ram, 0.35))
        << row.profile.platform << " SSD:RAM";
    EXPECT_TRUE(Within(sizes.HddPerRam(), row.paper_hdd_per_ram, 0.35))
        << row.profile.platform << " HDD:RAM";
    // Tiering sanity: each colder tier is strictly larger.
    EXPECT_GT(sizes.ssd_bytes, sizes.ram_bytes) << row.profile.platform;
    EXPECT_GT(sizes.hdd_bytes, sizes.ssd_bytes) << row.profile.platform;
  }
}

// --- Table 6: IPC and MPKI ----------------------------------------------

class SmallFleetTest : public ::testing::Test {
 protected:
  // One small-N fleet run shared by the Table 6 assertions: 2000 queries
  // per platform is enough for the PMU synthesis to concentrate near its
  // per-category targets.
  static void SetUpTestSuite() {
    platforms::FleetConfig config;
    config.queries_per_platform = 2000;
    config.trace_sample_one_in = 10;
    fleet_ = new platforms::FleetSimulation(config);
    fleet_->AddDefaultPlatforms();
    fleet_->RunAll();
  }
  static void TearDownTestSuite() {
    delete fleet_;
    fleet_ = nullptr;
  }
  static platforms::FleetSimulation* fleet_;
};

platforms::FleetSimulation* SmallFleetTest::fleet_ = nullptr;

TEST_F(SmallFleetTest, Table6IpcAndMpki) {
  EXPECT_TRUE(claims::AllHold(claims::Table6(*fleet_)));
}

// --- Table 8: chained-accelerator model validation ----------------------

TEST(PaperRecovery, Table8SimulatedSocValidation) {
  // Part 1 of the Table 8 reproduction: replay the FireSim experiment on
  // the event-driven SoC simulator and compare measured chained execution
  // against the analytical model (Eq. 9-12). The paper reports a 6.1%
  // model difference; the reproduction must stay within the documented
  // ~15% tracking band.
  Rng rng(7);
  soc::MessageBatch batch = soc::MessageBatch::Synthetic(200, 2048, rng);
  soc::SocConfig config =
      soc::SocConfig::CalibratedTo(batch.TotalBytes(), batch.size());
  soc::ChainedSocSim sim(config);
  auto unaccel = sim.RunUnaccelerated(batch);
  auto chained = sim.RunChained(batch);

  // Chaining must actually help, and the calibrated sub-task times must
  // match the published RTL measurements to first order.
  EXPECT_LT(chained.total.ToSeconds(), unaccel.total.ToSeconds());
  EXPECT_TRUE(Within(unaccel.serialize_time.ToSeconds(), 518.3e-6, 0.15));
  EXPECT_TRUE(Within(unaccel.hash_time.ToSeconds(), 1112.5e-6, 0.15));

  model::Workload workload;
  workload.t_cpu = unaccel.total.ToSeconds();
  workload.t_dep = 0;
  workload.f = 1.0;
  model::Component serialize;
  serialize.name = "Proto. Ser.";
  serialize.t_sub = unaccel.serialize_time.ToSeconds();
  serialize.speedup = config.serialize_speedup;
  serialize.t_setup = config.serialize_setup.ToSeconds();
  serialize.chained = true;
  model::Component hash;
  hash.name = "SHA3";
  hash.t_sub = unaccel.hash_time.ToSeconds();
  hash.speedup = config.hash_speedup;
  hash.t_setup = config.hash_setup.ToSeconds();
  hash.chained = true;
  workload.components = {serialize, hash};
  double modeled = model::AccelModel(workload).AcceleratedE2e();
  // The construction above is the reference for the simulator's own.
  EXPECT_EQ(sim.ModeledChained(unaccel), modeled);
  double measured = chained.total.ToSeconds();
  ASSERT_GT(modeled, 0);
  EXPECT_LT(std::fabs(modeled - measured) / modeled, 0.15)
      << "modeled " << modeled << "s vs measured " << measured << "s";
}

TEST(PaperRecovery, Table8HostKernelValidation) {
  // Part 2: real serialization chained into real SHA3 across two host
  // threads. Wall-clock on shared CI machines is noisy, so the error
  // bound is deliberately loose; the output-consistency check is exact.
  auto host = soc::RunHostValidation(200, /*seed=*/11);
  EXPECT_EQ(host.num_messages, 200u);
  EXPECT_GT(host.total_wire_bytes, 0u);
  EXPECT_EQ(host.digest_xor, 0u) << "serial and chained outputs diverged";
  EXPECT_GT(host.chained_total_seconds, 0);
  EXPECT_GT(host.modeled_chained_seconds, 0);
  EXPECT_LT(host.ModelErrorFraction(), 0.9);
}

}  // namespace
}  // namespace hyperprof
