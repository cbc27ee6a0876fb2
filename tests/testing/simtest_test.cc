// Deterministic simulation testing: the fixed-seed fuzz block that CI
// runs, plus tests of the harness itself — scenario generation is a pure
// function of the seed, the invariant checker catches deliberately broken
// runs, digests are sensitive to every recovered bit, and the shrinker
// minimizes failing scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "testing/invariants.h"
#include "testing/scenario.h"
#include "testing/shrink.h"
#include "testing/simtest.h"

namespace hyperprof::testing {
namespace {

// Single-execution options for tests that only need the primary run.
SimtestOptions PrimaryOnly() {
  SimtestOptions options;
  options.check_parallel = false;
  options.check_replay = false;
  return options;
}

TEST(ScenarioGen, PureFunctionOfSeed) {
  for (uint64_t seed : {1ULL, 7ULL, 1234567ULL}) {
    Scenario a = ScenarioGen::Generate(seed);
    Scenario b = ScenarioGen::Generate(seed);
    EXPECT_EQ(a.Describe(), b.Describe());
    EXPECT_EQ(a.specs.size(), b.specs.size());
    EXPECT_EQ(a.config.seed, b.config.seed);
  }
  // Adjacent seeds produce different scenarios (the grammar actually
  // consumes the stream).
  EXPECT_NE(ScenarioGen::Generate(1).Describe(),
            ScenarioGen::Generate(2).Describe());
}

TEST(ScenarioGen, SweepsTheBehaviourSpace) {
  // Over a modest seed range every major scenario dimension must vary:
  // platform counts, armed faults, non-plain policies, reservoir
  // retention, and outage windows all appear.
  bool saw_multi_platform = false, saw_faults = false, saw_resilient = false,
       saw_reservoir = false, saw_outage = false, saw_plain = false,
       saw_budgets = false, saw_no_budgets = false, saw_narrow_window = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = ScenarioGen::Generate(seed);
    saw_multi_platform |= s.specs.size() > 1;
    saw_faults |= s.config.fault.Enabled();
    saw_resilient |= !s.config.dfs.read_policy.Plain();
    saw_plain |= s.config.dfs.read_policy.Plain();
    saw_reservoir |= s.config.trace_retention ==
                     profiling::TraceRetention::kSampleReservoir;
    saw_outage |= !s.config.outages.empty();
    bool budgets = s.config.continuous_budget[0] > SimTime::Zero();
    saw_budgets |= budgets;
    saw_no_budgets |= !budgets;
    saw_narrow_window |= s.config.continuous_window <= SimTime::Millis(25);
  }
  EXPECT_TRUE(saw_multi_platform);
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_resilient);
  EXPECT_TRUE(saw_plain);
  EXPECT_TRUE(saw_reservoir);
  EXPECT_TRUE(saw_outage);
  EXPECT_TRUE(saw_budgets);
  EXPECT_TRUE(saw_no_budgets);
  EXPECT_TRUE(saw_narrow_window);
}

TEST(InvariantRegistry, DefaultCatalogue) {
  InvariantRegistry registry = InvariantRegistry::Default();
  EXPECT_GE(registry.size(), 8u);
  auto names = registry.Names();
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("attribution-conservation"));
  EXPECT_TRUE(has("span-causality"));
  EXPECT_TRUE(has("tracer-bookkeeping"));
  EXPECT_TRUE(has("kernel-quiesce"));
  EXPECT_TRUE(has("dfs-conservation"));
  EXPECT_TRUE(has("rpc-accounting"));
  EXPECT_TRUE(has("fault-gating"));
  EXPECT_TRUE(has("breakdown-consistency"));
  EXPECT_TRUE(has("shard-exchange"));
  EXPECT_TRUE(has("continuous-windows"));
  EXPECT_TRUE(has("serving-accounting"));
}

// Returns true if `run` has at least one retained trace with a span.
bool HasSpan(const RunArtifacts& run) {
  for (const auto& p : run.platforms) {
    for (const auto& trace : p.traces) {
      if (!trace.spans.empty()) return true;
    }
  }
  return false;
}

// Perturbs the end of the first span found: stretches it one millisecond
// past its trace's end, breaking causality and the attribution bound.
void PerturbOneSpanEnd(RunArtifacts& run) {
  for (auto& p : run.platforms) {
    for (auto& trace : p.traces) {
      if (trace.spans.empty()) continue;
      trace.spans.front().end = trace.end + SimTime::Millis(1);
      return;
    }
  }
}

TEST(Invariants, CleanRunPasses) {
  SeedReport report = RunSeed(1, PrimaryOnly());
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(Invariants, PerturbedSpanEndIsCaught) {
  // The acceptance check of the harness: corrupt one span end in an
  // otherwise clean run and the catalogue must flag it.
  SimtestOptions options = PrimaryOnly();
  bool corrupted = false;
  options.corrupt = [&](RunArtifacts& run) {
    ASSERT_TRUE(HasSpan(run));
    PerturbOneSpanEnd(run);
    corrupted = true;
  };
  SeedReport report = RunSeed(1, options);
  ASSERT_TRUE(corrupted);
  ASSERT_FALSE(report.ok());
  bool attribution_or_causality = false;
  for (const auto& v : report.violations) {
    attribution_or_causality |= v.invariant == "attribution-conservation" ||
                                v.invariant == "span-causality" ||
                                v.invariant == "breakdown-consistency";
  }
  EXPECT_TRUE(attribution_or_causality) << report.Summary();
}

TEST(Invariants, PerturbedCountersAreCaught) {
  struct Case {
    const char* expect_invariant;
    std::function<void(RunArtifacts&)> corrupt;
  };
  const Case cases[] = {
      {"tracer-bookkeeping",
       [](RunArtifacts& run) { run.platforms[0].queries_seen += 1; }},
      {"kernel-quiesce",
       [](RunArtifacts& run) { run.platforms[0].totals.pending_events = 3; }},
      {"dfs-conservation",
       [](RunArtifacts& run) {
         run.platforms[0].servers.at(0).tier_reads[0] += 1;
       }},
      {"rpc-accounting",
       [](RunArtifacts& run) {
         run.platforms[0].totals.hedge_wins =
             run.platforms[0].totals.hedges_issued + 1;
       }},
      {"fault-gating",
       [](RunArtifacts& run) {
         run.platforms[0].totals.injected_drops =
             run.platforms[0].totals.fault_decisions + 1;
       }},
      {"shard-exchange",
       [](RunArtifacts& run) {
         // A fused run reporting stranded envelopes is inconsistent either
         // way: fabric activity without shards, or an undrained mailbox.
         run.platforms[0].shards.undelivered = 1;
       }},
      {"shard-exchange",
       [](RunArtifacts& run) {
         // Late deliveries mean a post delivered less than one window
         // ahead and the conservative window broke — flagged in any mode.
         run.platforms[0].shards.late_deliveries = 1;
       }},
      {"continuous-windows",
       [](RunArtifacts& run) {
         // A query the tracer finished but no window absorbed.
         run.platforms[0].continuous_observed += 1;
       }},
      {"continuous-windows",
       [](RunArtifacts& run) {
         // An anomaly log inconsistent with the overrun counters.
         run.platforms[0].continuous_anomalies_dropped += 1;
       }},
      {"serving-accounting",
       [](RunArtifacts& run) {
         // A serving door that lost a query: neither admitted nor shed.
         run.serving = true;
         run.serve_offered = 10;
         run.serve_admitted = 6;
         run.serve_shed = 3;
         run.serve_completed = 6;
         run.serve_responses = 6;
       }},
      {"serving-accounting",
       [](RunArtifacts& run) {
         // An admitted query that vanished: not completed, not in flight.
         run.serving = true;
         run.serve_offered = 8;
         run.serve_admitted = 8;
         run.serve_completed = 7;
         run.serve_in_flight = 0;
         run.serve_responses = 7;
       }},
      {"serving-accounting",
       [](RunArtifacts& run) {
         // A forged response: more responses than completions.
         run.serving = true;
         run.serve_offered = 4;
         run.serve_admitted = 4;
         run.serve_completed = 4;
         run.serve_responses = 5;
       }},
  };
  for (const auto& c : cases) {
    SimtestOptions options = PrimaryOnly();
    options.corrupt = c.corrupt;
    SeedReport report = RunSeed(1, options);
    ASSERT_FALSE(report.ok()) << c.expect_invariant;
    bool found = false;
    for (const auto& v : report.violations) {
      found |= v.invariant == c.expect_invariant;
    }
    EXPECT_TRUE(found) << "expected " << c.expect_invariant << " in:\n"
                       << report.Summary();
  }
}

TEST(Invariants, ConsistentServingCountersPass) {
  // Balanced door counters (with work still in flight at snapshot time)
  // must not trip the conservation check.
  SimtestOptions options = PrimaryOnly();
  options.corrupt = [](RunArtifacts& run) {
    run.serving = true;
    run.serve_offered = 12;
    run.serve_admitted = 9;
    run.serve_shed = 3;
    run.serve_completed = 7;
    run.serve_in_flight = 2;
    run.serve_responses = 7;
  };
  SeedReport report = RunSeed(1, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(Invariants, CorruptionAlsoBreaksReplayDigest) {
  // The replay re-executes the scenario in one shot while the primary was
  // stepped through Start/Advance/Finish. Uncorrupted, the two must agree
  // (pausing is invisible); a corrupted primary must disagree with its
  // clean replay, proving the replay recomputes (and matches) the full
  // artifact set — the digest covers every recovered bit.
  SimtestOptions options;
  options.check_parallel = false;
  options.check_replay = true;
  SeedReport clean = RunSeed(1, options);
  EXPECT_TRUE(clean.ok()) << clean.Summary();
  options.corrupt = PerturbOneSpanEnd;
  SeedReport report = RunSeed(1, options);
  bool replay_flagged = false;
  for (const auto& v : report.violations) {
    replay_flagged |= v.invariant == "determinism-replay";
  }
  EXPECT_TRUE(replay_flagged) << report.Summary();
}

TEST(Invariants, CorruptedWindowTotalBreaksReplayDigest) {
  // Window totals and sketch percentiles are folded into the digest: a
  // single-nanosecond perturbation of one window total must break the
  // replay comparison even though no conservation check notices it.
  SimtestOptions options;
  options.check_parallel = false;
  options.check_replay = true;
  options.corrupt = [](RunArtifacts& run) {
    for (auto& p : run.platforms) {
      if (p.windows.empty()) continue;
      p.windows.front().total_nanos[0] += 1;
      return;
    }
    FAIL() << "no continuous windows collected";
  };
  SeedReport report = RunSeed(1, options);
  bool replay_flagged = false;
  for (const auto& v : report.violations) {
    replay_flagged |= v.invariant == "determinism-replay";
  }
  EXPECT_TRUE(replay_flagged) << report.Summary();
}

TEST(Invariants, ShardModeEpochCorruptionsAreCaught) {
  struct Case {
    uint32_t shards;  // forced mode: 0 fused, 2 sharded
    std::function<void(RunArtifacts&)> corrupt;
  };
  const Case cases[] = {
      // A fused platform running epochs has no fabric to run them on.
      {0, [](RunArtifacts& run) { run.platforms[0].shards.epochs = 1; }},
      // A sharded fabric that carried traffic must have run epochs.
      {2, [](RunArtifacts& run) { run.platforms[0].shards.epochs = 0; }},
  };
  for (const auto& c : cases) {
    SimtestOptions options = PrimaryOnly();
    uint32_t shards = c.shards;
    options.mutate = [shards](Scenario& scenario) {
      scenario.config.shards_per_platform = shards;
      if (shards > 0) {
        for (auto& spec : scenario.specs) spec.worker_cores = 0;
      }
    };
    options.corrupt = c.corrupt;
    SeedReport report = RunSeed(1, options);
    ASSERT_FALSE(report.ok()) << "shards=" << c.shards;
    bool found = false;
    for (const auto& v : report.violations) {
      found |= v.invariant == "shard-exchange";
    }
    EXPECT_TRUE(found) << report.Summary();
  }
}

TEST(Invariants, CorruptedEpochCountBreaksReplayDigest) {
  // The epoch count is folded into the digest (it is schedule- and
  // shard-layout-invariant), so tampering with it must break the replay
  // comparison on a sharded run. Uncorrupted, the stepped primary
  // (ShardGroup::Advance pausing mid-epoch) must match the one-shot
  // replay: the pause-and-resume contract holds for sharded platforms too.
  SimtestOptions options;
  options.check_parallel = false;
  options.check_replay = true;
  options.mutate = [](Scenario& scenario) {
    scenario.config.shards_per_platform = 2;
    for (auto& spec : scenario.specs) spec.worker_cores = 0;
  };
  SeedReport clean = RunSeed(1, options);
  EXPECT_TRUE(clean.ok()) << clean.Summary();
  options.corrupt = [](RunArtifacts& run) {
    run.platforms[0].shards.epochs += 1;
  };
  SeedReport report = RunSeed(1, options);
  bool replay_flagged = false;
  for (const auto& v : report.violations) {
    replay_flagged |= v.invariant == "determinism-replay";
  }
  EXPECT_TRUE(replay_flagged) << report.Summary();
}

TEST(Shrinker, MinimizesAlongMonotonePredicate) {
  // Failure fires iff queries >= 8: the shrinker must walk the volume down
  // close to the boundary and strip every irrelevant dimension.
  Scenario start = ScenarioGen::Generate(5);
  start.config.queries_per_platform = 100;
  start.config.fault.drop_probability = 0.01;
  ASSERT_GE(start.config.queries_per_platform, 8u);
  size_t executions = 0;
  Shrinker shrinker([&](const Scenario& s) {
    ++executions;
    return s.config.queries_per_platform >= 8;
  });
  ShrinkResult result = shrinker.Minimize(start);
  EXPECT_GE(result.scenario.config.queries_per_platform, 8u);
  EXPECT_LT(result.scenario.config.queries_per_platform, 16u);
  EXPECT_EQ(result.scenario.specs.size(), 1u);
  EXPECT_TRUE(result.scenario.config.outages.empty());
  EXPECT_EQ(result.scenario.config.fault.drop_probability, 0.0);
  EXPECT_TRUE(result.scenario.config.dfs.read_policy.Plain());
  EXPECT_EQ(result.runs, executions);
}

TEST(Shrinker, MinimizesARealInvariantFailure) {
  // End-to-end acceptance: a run corrupted by perturbing one span end
  // fails invariants; shrinking against the real runner must produce a
  // smaller scenario that still fails.
  SimtestOptions options = PrimaryOnly();
  options.corrupt = PerturbOneSpanEnd;
  Scenario start = ScenarioGen::Generate(1);
  ASSERT_FALSE(RunScenario(start, options).ok());
  Shrinker shrinker(
      [&](const Scenario& s) { return !RunScenario(s, options).ok(); },
      /*max_runs=*/40);
  ShrinkResult result = shrinker.Minimize(start);
  EXPECT_GT(result.accepted, 0u);
  EXPECT_LE(result.scenario.config.queries_per_platform,
            start.config.queries_per_platform);
  EXPECT_FALSE(RunScenario(result.scenario, options).ok())
      << result.scenario.Describe();
}

TEST(SimTest, FixedSeedBlock) {
  // The CI fuzz block: 100 scenarios from base seed 1, each stepped
  // through Start/Advance/Finish with mid-run checks after every step,
  // then run in parallel and replayed in one shot. Every seed's mid-run
  // checks must pass on these clean runs.
  // Reproduce a failure locally with:
  //   simtest_fuzz --seeds 100 --base-seed 1 --shrink
  SimtestOptions options;
  FuzzReport fuzz = RunSeedBlock(1, 100, options);
  EXPECT_EQ(fuzz.seeds_run, 100u);
  for (const auto& failure : fuzz.failures) {
    ADD_FAILURE() << failure.Summary();
  }
}

}  // namespace
}  // namespace hyperprof::testing
