// Deterministic simulation fuzzer: generates a random fleet scenario per
// seed, runs it end-to-end three times (stepped through Start/Advance/
// Finish at random virtual-time horizons with mid-run checks, parallel
// RunAll, serial RunAll replay), and evaluates the invariant catalogue.
// Exit status 0 iff every seed passed.
//
// Usage:
//   simtest_fuzz --seeds N --base-seed S [--shrink] [--shards K] [--verbose]
//
// --shards K overrides every scenario's shard count: the whole block runs
// with K worker kernels per platform (K=0 forces the fused single-kernel
// path), pinning the sharded determinism contract under fuzz.
//
// On failure, prints one repro line per failing seed; with --shrink, also
// minimizes each failing scenario and prints the reduced repro.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testing/shrink.h"
#include "testing/simtest.h"

namespace {

struct Args {
  uint64_t seeds = 100;
  uint64_t base_seed = 1;
  bool shrink = false;
  bool verbose = false;
  int64_t shards = -1;  // -1: keep each scenario's own draw
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    auto needs_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = needs_value("--seeds")) {
      args.seeds = std::strtoull(v, nullptr, 10);
    } else if (const char* v = needs_value("--base-seed")) {
      args.base_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = needs_value("--shards")) {
      args.shards = std::strtoll(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      args.shrink = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      args.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: simtest_fuzz [--seeds N] [--base-seed S] "
                 "[--shrink] [--shards K] [--verbose]\n");
    return 2;
  }

  using namespace hyperprof;
  using namespace hyperprof::testing;

  SimtestOptions options;
  if (args.shards >= 0) {
    uint32_t shards = static_cast<uint32_t>(args.shards);
    options.mutate = [shards](Scenario& scenario) {
      scenario.config.shards_per_platform = shards;
      if (shards > 0) {
        // Sharded engines require the infinite-cores worker model.
        for (auto& spec : scenario.specs) spec.worker_cores = 0;
      }
    };
  }

  std::printf("simtest_fuzz: seeds [%llu, %llu), shards=%s\n",
              static_cast<unsigned long long>(args.base_seed),
              static_cast<unsigned long long>(args.base_seed + args.seeds),
              args.shards >= 0 ? std::to_string(args.shards).c_str()
                               : "scenario");

  FuzzReport fuzz = RunSeedBlock(
      args.base_seed, args.seeds, options,
      [&](uint64_t seed, const SeedReport& report) {
        if (args.verbose || !report.ok()) {
          std::printf("%s seed=%llu digest=%016llx\n",
                      report.ok() ? "PASS" : "FAIL",
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(report.digest));
        }
        if (!report.ok()) std::printf("%s\n", report.Summary().c_str());
        std::fflush(stdout);
      });

  std::printf("simtest_fuzz: %llu seeds, %zu failures\n",
              static_cast<unsigned long long>(fuzz.seeds_run),
              fuzz.failures.size());

  if (fuzz.ok()) return 0;

  if (args.shrink) {
    for (const auto& failure : fuzz.failures) {
      Shrinker shrinker([&](const Scenario& candidate) {
        return !RunScenario(candidate, options).ok();
      });
      ShrinkResult reduced = shrinker.Minimize(failure.scenario);
      std::printf("shrunk seed=%llu (%zu runs, %zu reductions):\n  %s\n",
                  static_cast<unsigned long long>(failure.scenario.seed),
                  reduced.runs, reduced.accepted,
                  reduced.scenario.Describe().c_str());
    }
  }
  return 1;
}
