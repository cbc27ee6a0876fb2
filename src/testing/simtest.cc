#include "testing/simtest.h"

#include <utility>

#include "common/rng.h"
#include "common/strings.h"

namespace hyperprof::testing {

namespace {

/**
 * Invariants safe to assert while a platform is still mid-flight: ledger
 * bounds and counter relations that must hold at every instant, not just
 * at quiesce. Runs between the stepped primary's Advance calls, with
 * every kernel of platform `index` paused at `now`.
 */
void MidRunCheck(const platforms::FleetSimulation& fleet, size_t index,
                 SimTime now, std::vector<Violation>& out) {
  const std::string& name = fleet.EngineOf(index).spec().name;
  auto report = [&](const char* detail) {
    out.push_back(Violation{
        "mid-run", name,
        StrFormat("%s at t=%.6fs", detail, now.ToSeconds())});
  };

  const auto& dfs = fleet.DfsOf(index);
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    const storage::TieredStore& store = dfs.server_store(s);
    uint64_t tier_sum = store.tier_reads(storage::Tier::kRam) +
                        store.tier_reads(storage::Tier::kSsd) +
                        store.tier_reads(storage::Tier::kHdd);
    if (tier_sum != store.reads()) report("tier reads != reads");
    if (store.ram_cache().used_bytes() > store.ram_cache().capacity_bytes())
      report("RAM ledger over capacity");
    if (store.ssd_cache().used_bytes() > store.ssd_cache().capacity_bytes())
      report("SSD ledger over capacity");
  }

  const auto& rpc = fleet.RpcOf(index);
  if (rpc.hedge_wins() > rpc.hedges_issued())
    report("hedge wins > hedges issued");
  if (rpc.cancelled_attempts() > rpc.retries_issued() + rpc.hedges_issued())
    report("cancelled > extra attempts");
  if (rpc.wasted_seconds() < 0) report("negative wasted time");

  const auto& tracer = fleet.TracerOf(index);
  if (tracer.queries_finished() > tracer.queries_sampled())
    report("finished > sampled");
  if (tracer.open_traces() !=
      tracer.queries_sampled() - tracer.queries_finished())
    report("open traces != sampled - finished");
}

/**
 * Builds and runs the scenario's fleet once. With `mid_run` set, this is
 * the stepped primary: Start, then Advance at seed-derived virtual-time
 * horizons (the serving daemon's pause-and-resume surface) with
 * MidRunCheck on every platform after each step, then Finish. Otherwise
 * it is one RunAll at `parallelism`.
 */
RunArtifacts ExecuteOnce(const Scenario& scenario, uint32_t parallelism,
                         std::vector<Violation>* mid_run) {
  platforms::FleetConfig config = scenario.config;
  config.parallelism = parallelism;
  platforms::FleetSimulation fleet(config);
  for (const auto& spec : scenario.specs) fleet.AddPlatform(spec);
  if (mid_run != nullptr) {
    // Horizon steps are derived from the scenario seed so the pause
    // points vary across the fuzz corpus but replay identically.
    fleet.Start();
    Rng steps(scenario.seed ^ 0x1c3e6e7a1u);
    SimTime horizon = SimTime::Zero();
    bool more = true;
    while (more) {
      horizon +=
          SimTime::Micros(100 + static_cast<int64_t>(steps.NextBounded(20000)));
      more = fleet.Advance(horizon);
      for (size_t p = 0; p < fleet.platform_count(); ++p) {
        MidRunCheck(fleet, p, horizon, *mid_run);
      }
    }
    fleet.Finish();
  } else {
    fleet.RunAll();
  }

  RunArtifacts artifacts = CollectArtifacts(fleet);
  artifacts.scenario_seed = scenario.seed;
  artifacts.queries_per_platform = scenario.config.queries_per_platform;
  artifacts.retain_all = scenario.config.trace_retention ==
                         profiling::TraceRetention::kRetainAll;
  artifacts.reservoir_capacity = scenario.config.trace_reservoir_capacity;
  artifacts.faults_armed = scenario.config.fault.Enabled() ||
                           !scenario.config.outages.empty();
  artifacts.read_policy_plain = scenario.config.dfs.read_policy.Plain();
  artifacts.write_policy_plain = scenario.config.dfs.write_policy.Plain();
  return artifacts;
}

}  // namespace

std::string SeedReport::Summary() const {
  std::string out = scenario.Describe();
  if (violations.empty()) {
    out += "\n  OK";
    return out;
  }
  for (const auto& violation : violations) {
    out += "\n  " + violation.ToString();
  }
  return out;
}

SeedReport RunScenario(const Scenario& scenario,
                       const SimtestOptions& options) {
  SeedReport report;
  report.scenario = scenario;

  // Primary run: stepped through Start/Advance/Finish, checked mid-run.
  std::vector<Violation> mid_run_violations;
  RunArtifacts primary =
      ExecuteOnce(scenario, /*parallelism=*/1, &mid_run_violations);
  if (options.corrupt) options.corrupt(primary);
  report.digest = DigestArtifacts(primary);

  InvariantRegistry default_registry;
  const InvariantRegistry* registry = options.registry;
  if (registry == nullptr) {
    default_registry = InvariantRegistry::Default();
    registry = &default_registry;
  }
  report.violations = registry->Evaluate(primary);
  for (auto& violation : mid_run_violations) {
    report.violations.push_back(std::move(violation));
  }

  // Determinism contract, part 1: parallel host execution is bit-identical.
  if (options.check_parallel && scenario.compare_parallel) {
    RunArtifacts parallel =
        ExecuteOnce(scenario, /*parallelism=*/0, /*mid_run=*/nullptr);
    uint64_t parallel_digest = DigestArtifacts(parallel);
    if (parallel_digest != report.digest) {
      report.violations.push_back(Violation{
          "determinism-serial-parallel", "",
          StrFormat("serial digest %016llx != parallel digest %016llx",
                    static_cast<unsigned long long>(report.digest),
                    static_cast<unsigned long long>(parallel_digest))});
    }
  }

  // Determinism contract, part 2: replaying the seed is bit-identical.
  // The replay runs in one shot while the primary paused at every
  // horizon, so this also pins "paused == one-shot".
  if (options.check_replay) {
    RunArtifacts replay =
        ExecuteOnce(scenario, /*parallelism=*/1, /*mid_run=*/nullptr);
    uint64_t replay_digest = DigestArtifacts(replay);
    if (replay_digest != report.digest) {
      report.violations.push_back(Violation{
          "determinism-replay", "",
          StrFormat("run digest %016llx != replay digest %016llx",
                    static_cast<unsigned long long>(report.digest),
                    static_cast<unsigned long long>(replay_digest))});
    }
  }

  return report;
}

SeedReport RunSeed(uint64_t seed, const SimtestOptions& options) {
  Scenario scenario = ScenarioGen::Generate(seed);
  if (options.mutate) options.mutate(scenario);
  return RunScenario(scenario, options);
}

FuzzReport RunSeedBlock(
    uint64_t base_seed, uint64_t count, const SimtestOptions& options,
    const std::function<void(uint64_t, const SeedReport&)>& progress) {
  FuzzReport fuzz;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    SeedReport report = RunSeed(seed, options);
    ++fuzz.seeds_run;
    if (progress) progress(seed, report);
    if (!report.ok()) fuzz.failures.push_back(std::move(report));
  }
  return fuzz;
}

}  // namespace hyperprof::testing
