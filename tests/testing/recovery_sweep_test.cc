// Seed-block recovery gate: every fleet-level recovery claim of fleet_test,
// reproduction_test and paper_recovery_test's SmallFleetTest, checked on
// fleet_test's configuration (4,000 queries per platform, 1 in 10 traced)
// at fleet seeds 1-16. The pass rule, fixed before the first run: every
// check holds at 15 or more of the 16 seeds. The test prints each check's
// min, median and max margin (testing/recovery_claims.h defines margins).
//
// A change that moves simulated bits runs this before and after; one that
// makes a check fail the rule re-fits the spec, never the threshold.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platforms/fleet.h"
#include "testing/recovery_claims.h"

namespace hyperprof {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kSeeds = 16;
constexpr uint64_t kMinSeedsHeld = 15;
constexpr uint64_t kQueriesPerPlatform = 4000;

struct Row {
  std::string name;
  std::vector<double> margins;
  uint64_t held = 0;
};

TEST(RecoverySweepTest, EveryClaimHoldsAtFifteenOfSixteenSeeds) {
  std::vector<Row> rows;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    platforms::FleetConfig config;
    config.queries_per_platform = kQueriesPerPlatform;
    config.trace_sample_one_in = 10;
    config.seed = seed;
    platforms::FleetSimulation fleet(config);
    fleet.AddDefaultPlatforms();
    fleet.RunAll();
    const claims::Checks checks =
        claims::AllFleetClaims(fleet, kQueriesPerPlatform);
    if (rows.empty()) {
      for (const claims::Check& check : checks) rows.push_back({check.name, {}, 0});
    }
    ASSERT_EQ(checks.size(), rows.size());
    for (size_t i = 0; i < checks.size(); ++i) {
      ASSERT_EQ(checks[i].name, rows[i].name);
      rows[i].margins.push_back(checks[i].margin);
      if (checks[i].holds) ++rows[i].held;
    }
  }
  std::printf("recovery sweep: seeds %llu-%llu, %llu queries per platform\n",
              static_cast<unsigned long long>(kFirstSeed),
              static_cast<unsigned long long>(kFirstSeed + kSeeds - 1),
              static_cast<unsigned long long>(kQueriesPerPlatform));
  std::printf("| check | holds | min margin | median | max margin |\n");
  std::printf("|---|---|---|---|---|\n");
  for (Row& row : rows) {
    std::vector<double> sorted = row.margins;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    const double median = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2;
    std::printf("| %s | %llu/%llu | %.4g | %.4g | %.4g |\n", row.name.c_str(),
                static_cast<unsigned long long>(row.held),
                static_cast<unsigned long long>(kSeeds), sorted.front(),
                median, sorted.back());
  }
  for (const Row& row : rows) {
    EXPECT_GE(row.held, kMinSeedsHeld) << row.name;
  }
}

}  // namespace
}  // namespace hyperprof
