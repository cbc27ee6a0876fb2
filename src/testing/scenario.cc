#include "testing/scenario.h"

#include <algorithm>

#include "common/rng.h"
#include "common/strings.h"
#include "platforms/platforms.h"

namespace hyperprof::testing {

namespace {

/** Picks one element of a small candidate list. */
template <typename T, size_t N>
T Pick(Rng& rng, const T (&options)[N]) {
  return options[rng.NextBounded(N)];
}

}  // namespace

std::string Scenario::Describe() const {
  std::vector<std::string> names;
  names.reserve(specs.size());
  for (const auto& spec : specs) names.push_back(spec.name);
  const net::FaultSpec& fault = config.fault;
  return StrFormat(
      "seed=%llu platforms=[%s] queries=%llu rate=%.0fqps sample=1/%u "
      "retention=%s fs=%u ram=%lluMiB ssd=%lluMiB "
      "read[t=%lldms a=%u h=%lldms] write[t=%lldms a=%u] "
      "fault[drop=%.3f err=%.3f slow=%.3f] outages=%zu shards=%u "
      "window=%lldms budgets=%d parallel_cmp=%d",
      static_cast<unsigned long long>(seed), StrJoin(names, ",").c_str(),
      static_cast<unsigned long long>(config.queries_per_platform),
      config.arrival_rate_qps, config.trace_sample_one_in,
      config.trace_retention == profiling::TraceRetention::kRetainAll
          ? "all"
          : "reservoir",
      config.dfs.num_fileservers,
      static_cast<unsigned long long>(config.dfs.store.ram_bytes >> 20),
      static_cast<unsigned long long>(config.dfs.store.ssd_bytes >> 20),
      static_cast<long long>(config.dfs.read_policy.timeout.nanos() /
                             1000000),
      config.dfs.read_policy.max_attempts,
      static_cast<long long>(config.dfs.read_policy.hedge_delay.nanos() /
                             1000000),
      static_cast<long long>(config.dfs.write_policy.timeout.nanos() /
                             1000000),
      config.dfs.write_policy.max_attempts, fault.drop_probability,
      fault.error_probability, fault.slowdown_probability,
      config.outages.size(), config.shards_per_platform,
      static_cast<long long>(config.continuous_window.nanos() / 1000000),
      config.continuous_budget[0] > SimTime::Zero() ? 1 : 0,
      compare_parallel ? 1 : 0);
}

Scenario ScenarioGen::Generate(uint64_t seed) {
  Scenario scenario;
  scenario.seed = seed;
  // The generator stream is distinct from the fleet stream: the fleet seed
  // below is drawn *from* it, so scenario shape and workload randomness are
  // decoupled (changing the grammar reshuffles shapes, not the contract).
  Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);

  // Platform mix: 1..3 of the paper platforms, order randomized so shard
  // index (and thus the per-platform seed tree) is exercised for every
  // platform.
  platforms::PlatformSpec all[] = {platforms::SpannerSpec(),
                                   platforms::BigTableSpec(),
                                   platforms::BigQuerySpec()};
  size_t count = 1 + rng.NextBounded(3);
  size_t order[] = {0, 1, 2};
  for (size_t i = 2; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  for (size_t i = 0; i < count; ++i) {
    platforms::PlatformSpec spec = all[order[i]];
    // Shrink the Zipf block space so per-scenario setup (the cache
    // prewarm's pass over the warm range) stays cheap; hit-rate targets
    // keep their meaning.
    spec.block_space = 1 << 14;
    const uint32_t cores[] = {0, 0, 2, 8};
    spec.worker_cores = Pick(rng, cores);
    scenario.specs.push_back(std::move(spec));
  }

  platforms::FleetConfig& config = scenario.config;
  config.seed = rng.Next();
  config.queries_per_platform = 20 + rng.NextBounded(101);  // 20..120
  const double rates[] = {500.0, 2000.0, 8000.0};
  config.arrival_rate_qps = Pick(rng, rates);
  const uint32_t sampling[] = {1, 2, 5, 10};
  config.trace_sample_one_in = Pick(rng, sampling);
  if (rng.NextBool(0.25)) {
    config.trace_retention = profiling::TraceRetention::kSampleReservoir;
    const size_t capacities[] = {16u, 64u, 256u};
    config.trace_reservoir_capacity = Pick(rng, capacities);
  }

  // DFS geometry: small caches against the shrunken block space so all
  // three tiers serve reads in most scenarios.
  const uint32_t fileservers[] = {4, 8, 16};
  config.dfs.num_fileservers = Pick(rng, fileservers);
  const uint64_t ram_sizes[] = {16ULL << 20, 64ULL << 20, 256ULL << 20};
  const uint64_t ssd_sizes[] = {128ULL << 20, 1ULL << 30};
  config.dfs.store.ram_bytes = Pick(rng, ram_sizes);
  config.dfs.store.ssd_bytes = Pick(rng, ssd_sizes);

  // Per-IO resilience: plain (the legacy path) or timeout/retry/hedge.
  auto gen_policy = [&rng]() {
    net::RpcCallPolicy policy;
    if (rng.NextBool(0.4)) return policy;  // plain
    const int64_t timeouts_ms[] = {5, 20, 100};
    policy.timeout = SimTime::Millis(Pick(rng, timeouts_ms));
    policy.max_attempts = 2 + static_cast<uint32_t>(rng.NextBounded(3));
    const double jitters[] = {0.0, 0.3};
    policy.backoff_jitter = Pick(rng, jitters);
    if (rng.NextBool(0.5)) {
      const int64_t hedges_ms[] = {2, 10};
      policy.hedge_delay = SimTime::Millis(Pick(rng, hedges_ms));
    }
    return policy;
  };
  config.dfs.read_policy = gen_policy();
  config.dfs.write_policy = gen_policy();

  // Fault model: armed in half of the scenarios.
  if (rng.NextBool(0.5)) {
    config.fault.drop_probability = rng.NextDouble() * 0.03;
    config.fault.error_probability = rng.NextDouble() * 0.03;
    config.fault.slowdown_probability = rng.NextDouble() * 0.08;
    int64_t floor_ms = 1 + rng.NextInt(0, 9);
    config.fault.slowdown_floor = SimTime::Millis(floor_ms);
    config.fault.slowdown_ceil =
        SimTime::Millis(floor_ms + 5 + rng.NextInt(0, 40));
  }

  // Scheduled fileserver outages inside the expected run window.
  size_t num_outages = rng.NextBounded(3);
  double run_seconds = static_cast<double>(config.queries_per_platform) /
                       config.arrival_rate_qps;
  for (size_t i = 0; i < num_outages; ++i) {
    net::OutageWindow window;
    // Fileserver nodes live at {0, 100, index} (see DFS ServerNode).
    window.node = net::NodeId{
        0, 100,
        static_cast<uint32_t>(rng.NextBounded(config.dfs.num_fileservers))};
    window.start = SimTime::FromSeconds(rng.NextDouble() * run_seconds);
    window.end = window.start + SimTime::Millis(5 + rng.NextInt(0, 45));
    config.outages.push_back(window);
  }

  // Intra-platform sharding (DESIGN.md §13), drawn last so the shapes of
  // pre-sharding seeds are untouched. Sharded engines forbid finite worker
  // core pools (a core pool is cross-query mutable state), so sharded
  // scenarios force the infinite-cores model on every platform.
  const uint32_t shard_counts[] = {0, 0, 1, 2, 3};
  config.shards_per_platform = Pick(rng, shard_counts);
  if (config.shards_per_platform > 0) {
    for (auto& spec : scenario.specs) spec.worker_cores = 0;
  }

  // Continuous profiling (DESIGN.md §15), drawn after sharding for the
  // same reason: earlier seeds keep their shapes. Window width varies so
  // runs land anywhere from one window to dozens; budgets arm in half the
  // scenarios so the overrun/anomaly path is exercised against the digest.
  const int64_t windows_ms[] = {5, 25, 100, 250};
  config.continuous_window = SimTime::Millis(Pick(rng, windows_ms));
  const size_t histories[] = {32u, 128u};
  config.continuous_history = Pick(rng, histories);
  if (rng.NextBool(0.5)) {
    // Per-window aggregate budgets in the vicinity of real window loads:
    // at the drawn rates some windows overrun and some don't.
    config.continuous_budget[static_cast<size_t>(
        profiling::WindowCategory::kLatency)] =
        SimTime::Millis(1 + rng.NextInt(0, 99));
    config.continuous_budget[static_cast<size_t>(
        profiling::WindowCategory::kCpu)] =
        SimTime::Millis(1 + rng.NextInt(0, 49));
  }

  return scenario;
}

}  // namespace hyperprof::testing
