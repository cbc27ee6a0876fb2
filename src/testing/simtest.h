#ifndef HYPERPROF_TESTING_SIMTEST_H_
#define HYPERPROF_TESTING_SIMTEST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "testing/invariants.h"
#include "testing/scenario.h"

namespace hyperprof::testing {

/** Knobs for one scenario execution. */
struct SimtestOptions {
  /**
   * Re-run the scenario with host-thread parallelism and require a
   * bit-identical digest (the PR-1 determinism contract). Skipped when the
   * scenario itself sets compare_parallel=false.
   */
  bool check_parallel = true;

  /**
   * Re-run the scenario serially in one shot and require a bit-identical
   * digest. The primary pauses at every step horizon, so this also pins
   * the Advance(until) contract: pausing anywhere must be invisible.
   */
  bool check_replay = true;

  /**
   * Test hook: mutates the primary run's artifacts before invariant
   * evaluation and digesting. Used by the simtest suite to prove the
   * checker catches deliberately broken invariants. Null in production.
   */
  std::function<void(RunArtifacts&)> corrupt;

  /**
   * Applied to each generated scenario before it runs (RunSeed /
   * RunSeedBlock only). The fuzz driver uses this to force a shard count
   * across a whole seed block (`--shards N`). Null in production.
   */
  std::function<void(Scenario&)> mutate;

  /** Invariants to evaluate; the default catalogue when null. */
  const InvariantRegistry* registry = nullptr;
};

/** Outcome of executing one scenario (up to three fleet runs). */
struct SeedReport {
  Scenario scenario;
  uint64_t digest = 0;  // primary (stepped serial) run digest
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }

  /** Multi-line failure report: repro line plus every violation. */
  std::string Summary() const;
};

/**
 * Executes one scenario end-to-end and evaluates every invariant:
 *   1. stepped primary: Start, Advance at seed-derived virtual-time
 *      horizons with mid-run checks on every platform after each step,
 *      Finish; then the registry evaluation;
 *   2. parallel RunAll, digest equality ("determinism-serial-parallel");
 *   3. serial RunAll replay, digest equality ("determinism-replay"),
 *      which also pins paused == one-shot.
 */
SeedReport RunScenario(const Scenario& scenario,
                       const SimtestOptions& options = {});

/** Generates the scenario for `seed` and runs it. */
SeedReport RunSeed(uint64_t seed, const SimtestOptions& options = {});

/** Outcome of a fuzz block. */
struct FuzzReport {
  uint64_t seeds_run = 0;
  std::vector<SeedReport> failures;  // only failing seeds are retained

  bool ok() const { return failures.empty(); }
};

/**
 * Runs scenarios for seeds [base_seed, base_seed + count). `progress`
 * (optional) is invoked after every seed with (seed, report).
 */
FuzzReport RunSeedBlock(
    uint64_t base_seed, uint64_t count, const SimtestOptions& options = {},
    const std::function<void(uint64_t, const SeedReport&)>& progress = {});

}  // namespace hyperprof::testing

#endif  // HYPERPROF_TESTING_SIMTEST_H_
