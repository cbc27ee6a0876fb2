#ifndef HYPERPROF_PLATFORMS_FLEET_H_
#define HYPERPROF_PLATFORMS_FLEET_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/network.h"
#include "net/rpc.h"
#include "platforms/engine.h"
#include "platforms/spec.h"
#include "profiling/aggregate.h"
#include "profiling/continuous.h"
#include "profiling/function_registry.h"
#include "profiling/sampler.h"
#include "profiling/tracer.h"
#include "sim/shard_group.h"
#include "sim/simulator.h"
#include "storage/dfs.h"

namespace hyperprof::platforms {

/** Configuration of a whole-fleet characterization run. */
struct FleetConfig {
  uint64_t queries_per_platform = 20000;
  double arrival_rate_qps = 2000;
  // The paper samples 1/1000 of a production day (millions of queries);
  // we simulate fewer queries, so the default sampling is denser. The
  // sampling-rate ablation bench sweeps this.
  uint32_t trace_sample_one_in = 20;
  uint64_t seed = 42;
  // Host threads used by RunAll: 0 = one per hardware thread, 1 = the
  // serial path, N = at most N platforms simulate concurrently. Every
  // setting produces bit-identical results (see DESIGN.md).
  uint32_t parallelism = 0;
  // --- Intra-platform sharding -------------------------------------------
  // 0 (the default) is the legacy fused platform: one event kernel runs
  // the engine and the storage plane together, bit-identical to every
  // prior release. N > 0 splits the platform into N worker kernels plus
  // one storage kernel, which sim::ShardGroup runs in conservative epochs
  // on one thread; recovered results are bit-identical for every N >= 1
  // (see DESIGN.md §13), though the sharded timing model differs from the
  // fused one (each storage hop carries a fixed 50 us fabric latency, the
  // epoch window).
  uint32_t shards_per_platform = 0;
  // Trace retention: kRetainAll keeps every sampled trace for ablation
  // studies (the default); kSampleReservoir keeps only a bounded export
  // sample and folds everything into the streaming breakdown, making
  // tracer memory independent of run length. Aggregate reports are
  // bit-identical either way.
  profiling::TraceRetention trace_retention =
      profiling::TraceRetention::kRetainAll;
  size_t trace_reservoir_capacity = 256;
  // --- Continuous (windowed) profiling -----------------------------------
  // Virtual-time window of the rolling profile; Zero disables the
  // continuous profiler entirely. Fused platforms stream-evaluate windows
  // as virtual time passes; sharded platforms accumulate per-worker
  // windows and merge them at the post-run barrier — the merged
  // percentiles, budget stats, and anomaly log are bit-identical to the
  // fused aggregation of the same traces (pinned by continuous_test and
  // the simtest digest fold).
  SimTime continuous_window = SimTime::Millis(250);
  // Ring slots of rolling history. Sized so history * window covers the
  // run span; populated windows evicted early are counted, not silently
  // dropped.
  size_t continuous_history = 128;
  // Per-window, per-category virtual-time budgets (latency, cpu, io,
  // remote work). Zero = unlimited; overruns are flagged as anomalies.
  std::array<SimTime, profiling::kNumWindowCategories> continuous_budget = {};
  storage::DfsParams dfs;
  // Default fault spec installed on every shard's RPC fabric. All-zero (the
  // default) leaves the model un-armed: the fabric never consults it and
  // runs are bit-identical to a build without fault injection. Per-IO
  // resilience is configured via dfs.read_policy / dfs.write_policy.
  net::FaultSpec fault;
  // Scheduled node outage windows, applied to every shard.
  std::vector<net::OutageWindow> outages;

  FleetConfig() {
    // Size per-fileserver caches well below the simulated working sets so
    // the storage tiers actually get exercised.
    dfs.store.ram_bytes = 2ULL << 30;
    dfs.store.ssd_bytes = 16ULL << 30;
  }
};

/** Everything recovered for one platform after a fleet run. */
struct PlatformResult {
  std::string name;
  uint64_t queries_completed = 0;
  uint64_t queries_sampled = 0;
  profiling::E2eBreakdownReport e2e;
  profiling::CycleBreakdownReport cycles;
  profiling::MicroarchReport microarch;
};

/**
 * Aggregate accounting across every component of one platform. For a
 * fused platform these are the single instance's counters verbatim; for
 * a sharded platform they sum the storage plane and all worker shards
 * (every field is an exact-integer or additive-from-zero quantity, so
 * the sums are shard-layout-invariant).
 */
struct PlatformTotals {
  uint64_t queries_completed = 0;
  uint64_t io_failures = 0;
  // Event kernels.
  uint64_t events_executed = 0;
  uint64_t pending_events = 0;
  uint64_t cancelled_in_heap = 0;
  // RPC fabrics.
  uint64_t completed_calls = 0;
  uint64_t failed_calls = 0;
  uint64_t retries_issued = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedge_wins = 0;
  uint64_t timeouts_fired = 0;
  uint64_t cancelled_attempts = 0;
  double wasted_seconds = 0;
  // Fault injectors.
  uint64_t fault_decisions = 0;
  uint64_t injected_drops = 0;
  uint64_t injected_errors = 0;
  uint64_t injected_slowdowns = 0;
  uint64_t outage_hits = 0;
};

/** Shard-fabric accounting of one platform (all zero when fused). */
struct ShardStats {
  uint32_t shard_count = 0;  // worker kernels; 0 = fused platform
  uint64_t messages_posted = 0;
  uint64_t messages_delivered = 0;
  uint64_t undelivered = 0;  // must be zero after Finish/RunAll
  uint64_t epochs = 0;
  // Always 0: no epoch spans more than one window. Kept because existing
  // readers (the perfbench harness) still report it.
  uint64_t coalesced_epochs = 0;
  // Exchange-path heap allocations (mailbox growth); zero at a
  // warmed-up steady state. Layout-dependent — reporting only.
  uint64_t exchange_allocs = 0;
  // Envelopes that arrived in a kernel's past; nonzero means a Post broke
  // its one-window lookahead (checked by the shard-exchange invariant).
  uint64_t late_deliveries = 0;
};

/** Simulation-state memory accounting across the whole fleet. */
struct FleetMemoryStats {
  uint64_t kernel_bytes = 0;    // event heaps + slot tables
  uint64_t tracer_bytes = 0;    // open slots + retained traces
  uint64_t profiler_bytes = 0;  // folded sample tables + windows
  uint64_t total_bytes = 0;     // kernel + tracer + profiler
  uint64_t simulated_workers = 0;  // worker hosts modeled fleet-wide
  double bytes_per_worker = 0;     // total_bytes / simulated_workers
  // Storage-plane state, reported beside total_bytes rather than in it:
  // the RAM/SSD cache indexes of installed entries. The warm tail
  // PrewarmZipf leaves has no index, so this is 0 right after set-up and
  // grows with the blocks a run touches.
  uint64_t cache_bytes = 0;
};

/**
 * Builds one fully isolated substrate shard per platform (simulator,
 * network, RPC, distributed filesystem, tracer, profiler), runs the
 * configured query volumes for every added platform, and exposes the
 * recovered profiling reports. This is the reproduction harness behind the
 * paper's Figures 2-6 and Tables 6-7.
 *
 * The three production platforms are independent services; their shards
 * share no mutable state, so RunAll executes them concurrently on host
 * threads. Each shard's RNG streams derive from hash(config.seed,
 * platform_index), making reports bit-identical at every parallelism
 * setting.
 */
class FleetSimulation {
 public:
  explicit FleetSimulation(FleetConfig config = FleetConfig());
  ~FleetSimulation();

  FleetSimulation(const FleetSimulation&) = delete;
  FleetSimulation& operator=(const FleetSimulation&) = delete;

  /** Registers a platform before Start() or RunAll(). */
  void AddPlatform(PlatformSpec spec);

  /** Adds the three paper platforms with their calibrated specs. */
  void AddDefaultPlatforms();

  /**
   * Runs every platform's workload to completion through the same
   * per-platform steps as Start() and Finish(). When config.parallelism
   * resolves to more than one thread, each platform runs both steps, with
   * all of its kernels, as one job on a thread pool; results are
   * bit-identical either way. Replaces the whole Start/Advance/Finish
   * sequence — call one or the other.
   */
  void RunAll();

  // --- Incremental execution (the serving front door's substrate) --------
  // Start() schedules the configured workloads (a no-op beyond bookkeeping
  // when queries_per_platform == 0, the serving configuration), then
  // Advance(until) moves every platform's virtual clock to `until` and
  // pauses, and Finish() drains remaining work and runs the post-run
  // merges. Start + any sequence of Advance calls + Finish executes the
  // exact same events in the exact same order as RunAll — recovered
  // results are bit-identical, pinned by fleet_parallel_test and the
  // simtest fuzz digest ("determinism-replay"). Advance and Finish are
  // serial (every kernel on the calling thread); by the determinism
  // contract that never changes results.

  /** Begins a run: schedules every platform's workload. */
  void Start();

  /**
   * Advances every platform to virtual time `until` and pauses. Returns
   * true while any platform still has pending work (events beyond
   * `until`, or in-flight serving queries). Sharded platforms pause
   * mid-epoch without closing it (sim::ShardGroup::Advance);
   * fused platforms also advance their continuous profiler so live
   * window snapshots are current up to `until`.
   */
  bool Advance(SimTime until);

  /** Drains remaining work and runs the sharded/continuous finalizers. */
  void Finish();

  /** Number of registered platforms. */
  size_t platform_count() const { return slots_.size(); }

  /** Recovered results for platform `index` (registration order). */
  PlatformResult Result(size_t index) const;

  /** Recovered results for a platform by name (asserts on miss). */
  PlatformResult Result(const std::string& name) const;

  /** Raw traces of platform `index` (for ablation studies). */
  const std::vector<profiling::QueryTrace>& TracesOf(size_t index) const;

  /** The platform tracer's name interner (resolves trace name ids). */
  const profiling::NameInterner& NamesOf(size_t index) const;

  /** The platform's tracer (streaming breakdown, drop counters). */
  const profiling::Tracer& TracerOf(size_t index) const;

  /** The platform's CPU profiler (samples folded per leaf symbol). */
  const profiling::CpuProfiler& ProfilerOf(size_t index) const;

  /**
   * Continuous (windowed) profile of platform `index`: the streaming
   * instance for a fused platform, the barrier-merged one for a sharded
   * platform (identical output by construction). nullptr when disabled
   * (continuous_window == Zero) or, for sharded platforms, before
   * Finish/RunAll.
   */
  const profiling::ContinuousProfiler* ContinuousOf(size_t index) const;

  /** The platform's distributed filesystem (tier stats, caches). */
  const storage::DistributedFileSystem& DfsOf(size_t index) const;

  /** The platform's fault injector (draw/injection counters). */
  const net::FaultModel& FaultsOf(size_t index) const;

  /** The platform's RPC fabric (retry/hedge/timeout counters). */
  const net::RpcSystem& RpcOf(size_t index) const;

  /** The platform's engine (worker shard 0's engine when sharded). */
  const PlatformEngine& EngineOf(size_t index) const;

  /**
   * Mutable engine access for serving admission (PlatformEngine::Submit)
   * during an incremental run. Fused platforms only — a sharded engine
   * owns a fixed query partition and cannot accept ad-hoc admissions.
   */
  PlatformEngine& MutableEngineOf(size_t index);

  /**
   * Summed accounting over every component of platform `index`. Equals
   * the single instance's counters for a fused platform; sums workers
   * plus the storage plane for a sharded one. The invariant checker
   * consumes these so its checks hold in both modes.
   */
  PlatformTotals TotalsOf(size_t index) const;

  /** Shard-fabric counters of platform `index` (zeros when fused). */
  ShardStats ShardStatsOf(size_t index) const;

  /** Reserved simulation-state bytes across the fleet, per worker. */
  FleetMemoryStats MemoryStats() const;

  /** Events executed across all event kernels. */
  uint64_t total_events_executed() const;

  const profiling::FunctionRegistry& registry() const { return registry_; }

  /**
   * Seed of platform shard `platform_index` under fleet seed `fleet_seed`
   * (SplitMix64 of the pair). Exposed so studies can reproduce a single
   * shard out of a fleet run.
   */
  static uint64_t PlatformSeed(uint64_t fleet_seed, size_t platform_index);

 private:
  /**
   * One platform's private substrate. Shards never reference each other;
   * the only cross-shard state is the (immutable after construction)
   * function registry and config.
   *
   * Both platform shapes use this one layout. A fused platform is the
   * storage plane plus one engine on the storage kernel; a sharded one
   * adds a worker kernel per engine, the group that runs the kernels in
   * epochs, and the post-run merged views.
   */
  struct PlatformSlot {
    /** One event kernel and the RPC fabric (with its faults) on it. */
    struct Kernel {
      std::unique_ptr<sim::Simulator> simulator;
      std::unique_ptr<net::RpcSystem> rpc;
      std::unique_ptr<net::FaultModel> faults;
    };
    /** One engine and the measurement state it writes. */
    struct Engine {
      std::unique_ptr<profiling::Tracer> tracer;
      std::unique_ptr<profiling::ContinuousProfiler> continuous;
      std::unique_ptr<PlatformEngine> engine;
    };

    PlatformSpec spec;
    // Worker kernels in shard order, then the storage kernel (the only
    // kernel of a fused platform). Engine k runs on kernel k.
    std::vector<Kernel> kernels;
    std::unique_ptr<net::NetworkModel> network;
    std::unique_ptr<storage::DistributedFileSystem> dfs;
    // Where the engines' IO goes: the DFS directly when fused, the shard
    // fabric when sharded.
    std::unique_ptr<IoPort> io;
    // The platform's one CPU profiler, which every engine records into.
    std::unique_ptr<profiling::CpuProfiler> profiler;
    std::vector<Engine> engines;

    // --- Sharded platforms only (shards_per_platform > 0) ----------------
    std::unique_ptr<sim::ShardGroup> group;
    std::unique_ptr<profiling::Tracer> merged_tracer;
    std::unique_ptr<profiling::ContinuousProfiler> merged_continuous;

    Kernel& storage() { return kernels.back(); }
    const Kernel& storage() const { return kernels.back(); }
  };

  /**
   * Builds `slot`'s storage plane — kernel, network, RPC and a
   * Zipf-prewarmed DFS — forking rpc then dfs from `platform_rng`.
   */
  void BuildStoragePlane(PlatformSlot& slot, Rng& platform_rng) const;

  /** Installs a fault model on `rpc` with the configured faults/outages. */
  std::unique_ptr<net::FaultModel> InstallFaults(net::RpcSystem& rpc,
                                                 Rng rng) const;

  /** Post-run merge of a sharded platform's tracers and windows. */
  void FinalizePlatform(PlatformSlot& slot);

  /** Schedules one platform's configured workload (any thread). */
  void StartSlot(PlatformSlot& slot);

  /** Advances one platform to `until`; returns true if work remains. */
  bool AdvanceSlot(PlatformSlot& slot, SimTime until);

  /** Drains one platform and runs its post-run finalizers (any thread). */
  void FinishSlot(PlatformSlot& slot);

  FleetConfig config_;
  profiling::FunctionRegistry registry_;
  std::vector<std::unique_ptr<PlatformSlot>> slots_;
  bool started_ = false;   // Start() (or RunAll) called
  bool finished_ = false;  // Finish() (or RunAll) completed
};

}  // namespace hyperprof::platforms

#endif  // HYPERPROF_PLATFORMS_FLEET_H_
