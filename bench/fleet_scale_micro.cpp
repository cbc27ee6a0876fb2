// Microbenchmark of intra-platform fleet sharding (DESIGN.md §13–14): one
// compute-heavy platform swept across worker-kernel counts {1, 2, 3, 4, 8}.
// Reports aggregate simulated events per wall-clock second, the speedup
// over the single-kernel baseline, epoch-barrier throughput (barriers/sec
// and ns/barrier), exchange-path allocations, and the bit-identity of the
// recovered results across the sweep — the whole point of the
// epoch-barrier design is that the shard count buys wall-clock without
// moving a single output bit. Because epoch planning snaps to global
// next-event times, the epoch count is itself layout-invariant and folds
// into the identity check. A second
// section scales the modeled worker fleet 30x and reports simulation-state
// bytes per simulated worker, the capacity story toward 100k-worker runs.
// Trajectory tracked via BENCH_fleet_scale.json.
//
// Perf-smoke guard (CI, BENCH=1 scripts/check.sh): on a host with 2+
// cores and no sanitizer, any sharded point whose runner threads fit the
// host must stay within 10% of the 1-shard events/sec baseline — sharding
// must never make things slower. Skipped (with a printed reason) on
// 1-core hosts and under sanitizers, where wall-clock is meaningless.
//
// Usage: fleet_scale_micro [out.json] [--smoke]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_sanitizer.h"
#include "common/strings.h"
#include "common/table.h"
#include "platforms/fleet.h"
#include "sim/shard_group.h"

using namespace hyperprof;

namespace {

using Clock = std::chrono::steady_clock;

struct SweepPoint {
  uint32_t shards = 0;
  uint64_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  double speedup = 0;       // vs the 1-shard baseline
  bool core_limited = false;  // runner threads exceed host cores
  // Epoch-barrier fabric counters (from the fastest pass).
  uint64_t epochs = 0;
  uint64_t exchange_allocs = 0;
  uint64_t messages_posted = 0;
  double barriers_per_sec = 0;
  double ns_per_barrier = 0;
  // Result fingerprint, compared bitwise across the sweep. The epoch
  // count above joins it: the planner is layout-invariant by design.
  uint64_t queries_completed = 0;
  double overall_cpu_seconds = 0;
  double bench_total_seconds = 0;  // e2e time folded over every group
};

/**
 * The benchmark platform: compute-dominated queries (a 2ms and a 1ms
 * phase, decomposed into 50us activities, so each query is dozens of
 * worker-kernel events) around a single small storage read that keeps the
 * cross-shard fabric honest without making the shared storage kernel the
 * bottleneck.
 */
platforms::PlatformSpec BenchSpec() {
  platforms::PlatformSpec spec;
  spec.name = "shardbench";
  spec.activity_mean_seconds = 50e-6;
  spec.worker_cores = 0;  // sharded engines require the infinite-cores model
  spec.block_space = 1 << 14;
  for (size_t c = 0; c < profiling::kNumFnCategories; ++c) {
    spec.compute_mix[c] = 1.0;
  }

  platforms::QueryTypeSpec query;
  query.name = "scan";
  query.phases.push_back(platforms::PhaseSpec::Compute(0.002));
  platforms::IoPhaseSpec io;
  io.num_blocks = 1;
  io.block_bytes = 64 << 10;
  query.phases.push_back(platforms::PhaseSpec::Io(io));
  query.phases.push_back(platforms::PhaseSpec::Compute(0.001));
  spec.query_types.push_back(std::move(query));
  return spec;
}

platforms::FleetConfig BenchConfig(uint64_t queries, uint32_t shards,
                                   uint32_t worker_hosts) {
  platforms::FleetConfig config;
  config.queries_per_platform = queries;
  config.arrival_rate_qps = 50000;  // heavy overlap: many queries per epoch
  config.trace_sample_one_in = 10;
  config.seed = 42;
  config.parallelism = 0;  // persistent shard runners on all host cores
  config.shards_per_platform = shards;
  config.shard_window = SimTime::Micros(500);
  config.worker_hosts = worker_hosts;
  return config;
}

SweepPoint RunSweepPoint(uint64_t queries, uint32_t shards, int repeats,
                         unsigned host_cores) {
  SweepPoint point;
  point.shards = shards;
  point.core_limited = shards + 1 > host_cores;
  for (int pass = 0; pass < repeats; ++pass) {
    platforms::FleetSimulation fleet(BenchConfig(queries, shards,
                                                 /*worker_hosts=*/64));
    fleet.AddPlatform(BenchSpec());
    auto begin = Clock::now();
    fleet.RunAll();
    double elapsed =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (pass == 0 || elapsed < point.seconds) {
      point.seconds = elapsed;
      point.events = fleet.total_events_executed();
      platforms::ShardStats stats = fleet.ShardStatsOf(0);
      point.epochs = stats.epochs;
      point.exchange_allocs = stats.exchange_allocs;
      point.messages_posted = stats.messages_posted;
    }
    platforms::PlatformResult result = fleet.Result(0);
    point.queries_completed = result.queries_completed;
    point.overall_cpu_seconds = result.e2e.overall.time.cpu;
    point.bench_total_seconds = result.e2e.overall.time.cpu +
                                result.e2e.overall.time.io +
                                result.e2e.overall.time.remote;
  }
  point.events_per_sec =
      point.seconds > 0 ? static_cast<double>(point.events) / point.seconds
                        : 0;
  if (point.epochs > 0 && point.seconds > 0) {
    point.barriers_per_sec = static_cast<double>(point.epochs) / point.seconds;
    point.ns_per_barrier =
        point.seconds * 1e9 / static_cast<double>(point.epochs);
  }
  return point;
}

/**
 * Direct probe of the zero-steady-state-allocation guarantee: warm a
 * 4-kernel group with oversized (arena-routed) payloads, then read the
 * exchange-path allocation counter across an identical second wave. The
 * unit suite pins the same property with a real allocator override
 * (tests/sim/shard_group_test.cc); recording the counter here keeps the
 * JSON trajectory honest in release builds too.
 */
uint64_t SteadyStateExchangeAllocs() {
  constexpr uint32_t kKernels = 4;
  constexpr SimTime kWindow = SimTime::Micros(500);
  std::vector<std::unique_ptr<sim::Simulator>> owned;
  std::vector<sim::Simulator*> kernels;
  for (uint32_t i = 0; i < kKernels; ++i) {
    owned.push_back(std::make_unique<sim::Simulator>());
    kernels.push_back(owned.back().get());
  }
  sim::ShardGroup group(kernels, kWindow);
  struct Fat {
    char pad[96];  // past the 48-byte inline buffer: takes the arena path
  };
  auto wave = [&](uint64_t base_seq) {
    for (uint32_t from = 0; from < kKernels; ++from) {
      for (uint64_t m = 0; m < 16; ++m) {
        Fat fat{};
        group.Post(from, (from + 1) % kKernels,
                   kernels[from]->Now() + kWindow, /*lane=*/from,
                   base_seq + m, [fat] { (void)fat.pad; });
      }
    }
    group.Advance(SimTime::Max(), /*parallel=*/false);
  };
  // Warm-up: arena cells and *both* sides of the double-buffered
  // mailboxes grow here (each run flips staging and inbox once, so the
  // second wave touches the other buffer).
  wave(0);
  wave(16);
  const uint64_t warm = group.exchange_allocs();
  wave(32);  // steady state: every buffer and cell must be reused
  return group.exchange_allocs() - warm;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_fleet_scale.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  const uint64_t queries = smoke ? 600 : 20000;
  const int repeats = smoke ? 1 : 2;
  const uint32_t shard_counts[] = {1, 2, 3, 4, 8};
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("=== Fleet Sharding Scaling Microbenchmark ===\n");
  std::printf("%llu queries, shard sweep {1,2,3,4,8}, best of %d passes, "
              "%u host cores.\n",
              static_cast<unsigned long long>(queries), repeats, host_cores);
  std::printf("Wall-clock speedup is capped by min(shards + 1, host "
              "cores); bit-identity never is.\n\n");

  std::vector<SweepPoint> sweep;
  for (uint32_t shards : shard_counts) {
    sweep.push_back(RunSweepPoint(queries, shards, repeats, host_cores));
    SweepPoint& point = sweep.back();
    point.speedup = sweep.front().seconds > 0 && point.seconds > 0
                        ? sweep.front().seconds / point.seconds
                        : 0;
  }

  // The determinism contract, asserted right here in the bench: every
  // shard count recovered the same results — and executed the same epoch
  // schedule — bit for bit.
  bool identical = true;
  for (const SweepPoint& point : sweep) {
    identical = identical &&
                point.queries_completed == sweep.front().queries_completed &&
                point.overall_cpu_seconds == sweep.front().overall_cpu_seconds &&
                point.bench_total_seconds == sweep.front().bench_total_seconds &&
                point.epochs == sweep.front().epochs;
  }

  TextTable table({"Shards", "Events", "Seconds", "Events/sec", "Speedup",
                   "Epochs", "ns/barrier", "ExchAllocs"});
  for (const SweepPoint& point : sweep) {
    table.AddRow(
        {StrFormat("%u%s", point.shards, point.core_limited ? "*" : ""),
         StrFormat("%llu", static_cast<unsigned long long>(point.events)),
         StrFormat("%.3f", point.seconds),
         StrFormat("%.2fM", point.events_per_sec / 1e6),
         StrFormat("%.2fx", point.speedup),
         StrFormat("%llu", static_cast<unsigned long long>(point.epochs)),
         StrFormat("%.0f", point.ns_per_barrier),
         StrFormat("%llu",
                   static_cast<unsigned long long>(point.exchange_allocs))});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("results bit-identical across shard counts: %s\n",
              identical ? "yes" : "NO (BUG)");
  bool any_core_limited = false;
  for (const SweepPoint& point : sweep) {
    any_core_limited = any_core_limited || point.core_limited;
  }
  if (any_core_limited) {
    std::printf("* runner threads (shards + 1) exceed the %u host cores: "
                "wall-clock for starred rows measures oversubscription, "
                "not scaling\n",
                host_cores);
  }
  std::printf("\n");

  // Perf-smoke guard: sharding must never cost throughput on a host that
  // can actually run the threads. Exchange allocations amortize to zero,
  // so even the shard counts that merely fit (no spare cores for speedup)
  // must hold 90% of the single-kernel baseline.
  bool guard_failed = false;
  if (bench::kSanitized) {
    std::printf("perf guard: skipped (sanitizer build, wall-clock is not "
                "meaningful)\n\n");
  } else if (host_cores < 2) {
    std::printf("perf guard: skipped (1-core host, every sharded point is "
                "core-limited)\n\n");
  } else {
    const double baseline = sweep.front().events_per_sec;
    for (const SweepPoint& point : sweep) {
      if (point.shards < 2 || point.core_limited) continue;
      if (point.events_per_sec < 0.9 * baseline) {
        std::printf("perf guard: FAIL — %u shards ran at %.2fM events/s, "
                    "below 0.9x the 1-shard baseline %.2fM\n",
                    point.shards, point.events_per_sec / 1e6,
                    baseline / 1e6);
        guard_failed = true;
      }
    }
    if (!guard_failed) {
      std::printf("perf guard: ok (every fitting sharded point within 10%% "
                  "of the 1-shard baseline)\n");
    }
    std::printf("\n");
  }

  // The allocation half of the contract, independent of core count and
  // sanitizers: a warmed-up exchange path adds zero heap allocations.
  const uint64_t steady_allocs = SteadyStateExchangeAllocs();
  std::printf("steady-state exchange allocations (warmed group, identical "
              "second wave): %llu%s\n\n",
              static_cast<unsigned long long>(steady_allocs),
              steady_allocs == 0 ? "" : " (BUG: expected 0)");

  // Capacity: a 30x larger modeled worker fleet on 8 kernels. Memory here
  // is reserved simulation state (event heaps, open traces, samples), the
  // quantity that bounds how far worker_hosts can scale.
  const uint32_t big_hosts = 1920;  // 4 clusters x 1920 = 7680 workers
  platforms::FleetSimulation big(
      BenchConfig(smoke ? 300 : 2000, /*shards=*/8, big_hosts));
  big.AddPlatform(BenchSpec());
  big.RunAll();
  platforms::FleetMemoryStats memory = big.MemoryStats();
  std::printf("fleet of %llu simulated workers: %.1f MiB state, "
              "%.0f bytes/worker\n",
              static_cast<unsigned long long>(memory.simulated_workers),
              static_cast<double>(memory.total_bytes) / (1 << 20),
              memory.bytes_per_worker);

  std::FILE* file = std::fopen(json_path, "w");
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(file,
               "{\n  \"benchmark\": \"fleet_scale\",\n"
               "  \"host_cores\": %u,\n"
               "  \"bit_identical\": %s,\n"
               "  \"steady_state_exchange_allocs\": %llu,\n"
               "  \"results\": [\n",
               host_cores, identical ? "true" : "false",
               static_cast<unsigned long long>(steady_allocs));
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& point = sweep[i];
    std::fprintf(
        file,
        "    {\"shards\": %u, \"events\": %llu, "
        "\"seconds\": %.6f, \"events_per_sec\": %.0f, "
        "\"speedup_vs_1\": %.3f, \"core_limited\": %s,\n"
        "     \"epochs\": %llu, "
        "\"barriers_per_sec\": %.0f, \"ns_per_barrier\": %.0f, "
        "\"exchange_allocs\": %llu, \"messages_posted\": %llu}%s\n",
        point.shards, static_cast<unsigned long long>(point.events),
        point.seconds, point.events_per_sec, point.speedup,
        point.core_limited ? "true" : "false",
        static_cast<unsigned long long>(point.epochs),
        point.barriers_per_sec, point.ns_per_barrier,
        static_cast<unsigned long long>(point.exchange_allocs),
        static_cast<unsigned long long>(point.messages_posted),
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(file,
               "  ],\n  \"memory\": {\"worker_hosts\": %u, "
               "\"simulated_workers\": %llu, \"total_bytes\": %llu, "
               "\"bytes_per_worker\": %.1f}\n}\n",
               big_hosts,
               static_cast<unsigned long long>(memory.simulated_workers),
               static_cast<unsigned long long>(memory.total_bytes),
               memory.bytes_per_worker);
  std::fclose(file);
  std::printf("wrote %s\n", json_path);
  if (guard_failed || steady_allocs != 0) return 1;
  return identical ? 0 : 1;
}
