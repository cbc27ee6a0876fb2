// End-to-end reproduction shape tests: run the fleet characterization,
// derive model inputs from the *measured* profiles, and assert the
// paper's headline qualitative results (who wins, by roughly what factor,
// where the crossovers fall) — the contract of this reproduction. The
// claims and their thresholds live in testing/recovery_claims.cc.

#include <gtest/gtest.h>

#include "platforms/fleet.h"
#include "testing/recovery_claims.h"

namespace hyperprof::model {
namespace {

class ReproductionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    platforms::FleetConfig config;
    config.queries_per_platform = 4000;
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

platforms::FleetSimulation* ReproductionTest::fleet_ = nullptr;

TEST_F(ReproductionTest, Fig9WithoutDepsBigTableDominatesByOrders) {
  EXPECT_TRUE(claims::AllHold(claims::Fig9WithoutDeps(*fleet_)));
}

TEST_F(ReproductionTest, Fig9WithDepsNearPaperValues) {
  EXPECT_TRUE(claims::AllHold(claims::Fig9WithDeps(*fleet_)));
}

TEST_F(ReproductionTest, Fig13InvocationOrderingHolds) {
  EXPECT_TRUE(claims::AllHold(claims::Fig13InvocationOrdering(*fleet_)));
}

TEST_F(ReproductionTest, Fig13BigQueryOffChipIsASlowdown) {
  EXPECT_TRUE(claims::AllHold(claims::Fig13BigQueryOffChip(*fleet_)));
}

TEST_F(ReproductionTest, Fig14SetupHurtsSyncBeforeChained) {
  EXPECT_TRUE(claims::AllHold(claims::Fig14Setup(*fleet_)));
}

TEST_F(ReproductionTest, Fig15CombinedInPaperRange) {
  EXPECT_TRUE(claims::AllHold(claims::Fig15Combined(*fleet_)));
}

}  // namespace
}  // namespace hyperprof::model
