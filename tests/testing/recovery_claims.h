// Fleet-level paper-recovery claims, each threshold written once. The
// seed-42 suites (fleet_test, reproduction_test and paper_recovery_test's
// SmallFleetTest) assert these groups on one fleet; recovery_sweep_test
// asserts every group across a block of seeds and prints each check's
// margins.

#ifndef HYPERPROF_TESTS_TESTING_RECOVERY_CLAIMS_H_
#define HYPERPROF_TESTS_TESTING_RECOVERY_CLAIMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platforms/fleet.h"

namespace hyperprof::claims {

/**
 * One recovered statistic against its threshold. `margin` is the signed
 * distance from `value` to the threshold in the statistic's unit, positive
 * on the side that holds. A check folded over many tolerance bands (one
 * per platform or category) reports the worst band's error as a fraction
 * of its tolerance, which holds at <= 1, and names that band in `where`.
 */
struct Check {
  std::string name;
  double value = 0;
  double margin = 0;
  bool holds = false;
  std::string where;
};

using Checks = std::vector<Check>;

// Each group is one seed-42 test. `fleet` holds the three paper specs in
// AddDefaultPlatforms order and has finished its run.

// fleet_test (FleetTest).
Checks QueriesComplete(const platforms::FleetSimulation& fleet,
                       uint64_t queries_per_platform);
Checks BroadCycleShares(const platforms::FleetSimulation& fleet);
Checks FineCycleShares(const platforms::FleetSimulation& fleet);
Checks MicroarchTable7(const platforms::FleetSimulation& fleet);
Checks QueryGroupShares(const platforms::FleetSimulation& fleet);
Checks CrossPlatformBalance(const platforms::FleetSimulation& fleet);
Checks BigTableRemoteDominated(const platforms::FleetSimulation& fleet);
Checks SyncFactors(const platforms::FleetSimulation& fleet);
Checks StorageTiers(const platforms::FleetSimulation& fleet);
Checks SpannerConsensusSpans(const platforms::FleetSimulation& fleet);
Checks BigQueryShuffleSpans(const platforms::FleetSimulation& fleet);

// reproduction_test (ReproductionTest).
Checks Fig9WithoutDeps(const platforms::FleetSimulation& fleet);
Checks Fig9WithDeps(const platforms::FleetSimulation& fleet);
Checks Fig13InvocationOrdering(const platforms::FleetSimulation& fleet);
Checks Fig13BigQueryOffChip(const platforms::FleetSimulation& fleet);
Checks Fig14Setup(const platforms::FleetSimulation& fleet);
Checks Fig15Combined(const platforms::FleetSimulation& fleet);

// paper_recovery_test (SmallFleetTest).
Checks Table6(const platforms::FleetSimulation& fleet);

/** Every group above, in that order. */
Checks AllFleetClaims(const platforms::FleetSimulation& fleet,
                      uint64_t queries_per_platform);

/** Succeeds iff every check holds; the failure names each one that fails. */
::testing::AssertionResult AllHold(const Checks& checks);

}  // namespace hyperprof::claims

#endif  // HYPERPROF_TESTS_TESTING_RECOVERY_CLAIMS_H_
