#ifndef HYPERPROF_PLATFORMS_ENGINE_H_
#define HYPERPROF_PLATFORMS_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/rpc.h"
#include "platforms/spec.h"
#include "profiling/function_registry.h"
#include "profiling/sampler.h"
#include "profiling/tracer.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "storage/dfs.h"

namespace hyperprof::platforms {

/**
 * Cross-shard access to the storage plane for sharded platforms (see
 * FleetConfig::shards_per_platform). A shard engine submits reads and
 * writes here instead of calling the filesystem directly; the fabric
 * carries the request to the storage kernel and the completion back to
 * the issuing shard, each hop taking one shard window. `lane` is the
 * global query index and `seq` a per-query message counter — together
 * the shard-layout-invariant key that fixes the canonical delivery order
 * of same-instant cross-shard messages.
 */
class ShardIo {
 public:
  virtual ~ShardIo() = default;

  virtual void Read(uint32_t shard, uint64_t lane, uint64_t seq,
                    const net::NodeId& client, uint64_t block_id,
                    uint64_t bytes,
                    storage::DistributedFileSystem::ReadCallback on_done) = 0;

  virtual void Write(uint32_t shard, uint64_t lane, uint64_t seq,
                     const net::NodeId& client, uint64_t block_id,
                     uint64_t bytes, uint32_t replication,
                     storage::DistributedFileSystem::ReadCallback on_done) = 0;
};

/** Everything a platform engine needs from the substrate. */
struct EngineContext {
  sim::Simulator* simulator = nullptr;
  storage::DistributedFileSystem* dfs = nullptr;
  net::RpcSystem* rpc = nullptr;
  profiling::Tracer* tracer = nullptr;
  profiling::CpuProfiler* profiler = nullptr;
  const profiling::FunctionRegistry* registry = nullptr;
  // Optional continuous (windowed) profiler. The engine attaches it to the
  // tracer so every sampled finish lands in its virtual-time window, and
  // advances it past the final completion when the workload drains. Worker
  // shards carry a deferred-evaluation instance that the post-run merge
  // combines at the barrier (see profiling/continuous.h).
  profiling::ContinuousProfiler* continuous = nullptr;

  // --- Sharded mode (FleetConfig::shards_per_platform > 0) ---
  // When `shard_io` is set the engine runs in per-query-stream mode: it
  // owns queries whose global index is congruent to `shard_index` mod
  // `shard_count`, derives every stochastic draw for a query from a
  // stream seeded by (stream_seed, query index), draws trace-sampling
  // decisions itself (forced into the tracer), and routes storage IO
  // through `shard_io` instead of `dfs`. All of this makes a query's
  // simulated timeline a function of its index alone, which is what lets
  // any shard count produce bit-identical platform results.
  ShardIo* shard_io = nullptr;
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;  // 0 = legacy fused mode
  uint64_t stream_seed = 0;  // base of the per-query derived streams
  // Trace sampling rate applied via forced decisions (sharded mode).
  uint32_t sample_one_in = 1;
  // Simulated worker hosts per cluster that clients/peers are drawn
  // from; 64 matches the legacy draws bit-for-bit.
  uint32_t worker_hosts = 64;
};

/**
 * Executes a platform's query workload on the simulated substrate.
 *
 * Queries arrive as a Poisson process; each runs its template's phases
 * (sequential by default, overlapping when flagged): compute phases are
 * decomposed into categorized function activities reported to the CPU
 * profiler, IO phases issue real reads/writes against the distributed
 * filesystem (cache behaviour included), and remote phases fan out RPCs to
 * peer workers. Dapper-style spans are recorded for sampled queries.
 */
class PlatformEngine {
 public:
  PlatformEngine(EngineContext context, PlatformSpec spec, Rng rng);

  PlatformEngine(const PlatformEngine&) = delete;
  PlatformEngine& operator=(const PlatformEngine&) = delete;

  /**
   * Schedules `num_queries` arrivals at `arrival_rate_qps` and invokes
   * `on_all_done` when the last completes. Call Simulator::Run afterwards.
   */
  void Run(uint64_t num_queries, double arrival_rate_qps,
           std::function<void()> on_all_done);

  /**
   * Completion sink for serving admissions. A plain function pointer +
   * context so neither registration nor per-query completion dispatch
   * ever allocates — the serving daemon's whole completion path rides
   * this. Fired from inside simulator events (a later
   * Simulator::RunUntil / FleetSimulation::Advance step) with the
   * query's ticket and virtual end-to-end latency.
   */
  using ServingSink = void (*)(void* ctx, uint64_t ticket, SimTime latency);
  void SetServingSink(ServingSink sink, void* ctx);

  /**
   * Serving admission: starts one query of a sampled type at the engine's
   * current virtual time; its completion reaches the registered
   * ServingSink with `ticket`. Fused engines only — a sharded engine owns
   * a fixed query partition. Deterministic: given the same admission
   * sequence at the same virtual times, the simulated timeline is
   * bit-identical across runs. The steady state allocates nothing (query
   * states are pooled).
   */
  void Submit(uint64_t ticket);

  uint64_t queries_completed() const { return completed_; }
  /** IO-phase accesses that exhausted their policy and failed. */
  uint64_t io_failures() const { return io_failures_; }
  const PlatformSpec& spec() const { return spec_; }

  /** Worker-pool stats (null when contention is disabled). */
  const sim::Resource* worker_pool() const { return worker_pool_.get(); }

 private:
  struct QueryState;

  /**
   * Per-phase continuation. InlineFunction with the simulator callback's
   * buffer size, so the standard completion closures (this + query +
   * indices) stay inline and move straight into Schedule() without a
   * heap allocation.
   */
  using Done = sim::Simulator::Callback;

  /** Names and strings a remote phase needs per RPC, built once. */
  struct RemotePhaseInfo {
    profiling::NameId name_id = profiling::kInvalidNameId;
    std::string method;  // "<platform>.<phase>", shared by every RPC
  };

  /** Pops a recycled QueryState (fields reset) or allocates a fresh one. */
  std::shared_ptr<QueryState> AcquireQueryState();
  /** Shared tail of every fused admission: client draw, trace, phase 0. */
  void LaunchQuery(std::shared_ptr<QueryState> query);
  /** Batch-mode (fused) arrival of one query of type `type_index`. */
  void StartQuery(size_t type_index);
  /** Sharded-mode arrival: `rng` is the query's private stream, already
   * advanced past the arrival/type draws. */
  void StartShardedQuery(uint64_t lane, size_t type_index, Rng rng);
  void RunPhaseGroup(std::shared_ptr<QueryState> query, size_t phase_index);
  void RunPhase(std::shared_ptr<QueryState> query, size_t phase_index,
                Done done);
  void RunComputePhase(std::shared_ptr<QueryState> query,
                       const ComputePhaseSpec& phase, Done done);
  void RunIoPhase(std::shared_ptr<QueryState> query, const IoPhaseSpec& phase,
                  Done done);
  void RunRemotePhase(std::shared_ptr<QueryState> query,
                      const RemotePhaseSpec& phase,
                      const RemotePhaseInfo& info, Done done);
  void FinishQuery(std::shared_ptr<QueryState> query);

  double SampleLogNormalMean(Rng& rng, double mean, double sigma);
  /** The query's own stream in sharded mode, the engine stream otherwise. */
  Rng& DrawStream(QueryState& query);

  EngineContext context_;
  PlatformSpec spec_;
  Rng rng_;
  const bool sharded_;
  std::unique_ptr<AliasSampler> type_sampler_;
  std::unique_ptr<AliasSampler> mix_sampler_;
  std::vector<size_t> mix_categories_;  // categories with nonzero weight
  // Symbols per fine category, resolved once from the registry.
  std::vector<std::vector<std::string>> symbols_;
  std::unique_ptr<ZipfSampler> block_sampler_;
  // Finite worker-CPU pool when spec.worker_cores > 0 (else null).
  std::unique_ptr<sim::Resource> worker_pool_;
  // Interned names, resolved once at construction so the per-query path
  // never touches the interner's hash map.
  profiling::NameId platform_id_ = profiling::kInvalidNameId;
  profiling::NameId compute_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_read_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_write_span_id_ = profiling::kInvalidNameId;
  // Resilience annotation names (interned after every pre-existing name so
  // established NameId values — and the goldens keyed on them — hold).
  profiling::NameId dfs_retry_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_hedge_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_error_span_id_ = profiling::kInvalidNameId;
  std::vector<profiling::NameId> type_name_ids_;          // [type]
  std::vector<std::vector<RemotePhaseInfo>> remote_info_;  // [type][phase]
  uint64_t completed_ = 0;
  uint64_t io_failures_ = 0;
  uint64_t target_ = 0;
  std::function<void()> on_all_done_;
  // Ticketed-serving completion sink (see SetServingSink).
  ServingSink serving_sink_ = nullptr;
  void* serving_ctx_ = nullptr;
  // Recycled query states: FinishQuery returns each state here and
  // admission pops one back off, so a pipelined serving steady state
  // reuses the same handful of allocations forever.
  std::vector<std::shared_ptr<QueryState>> state_pool_;
};

}  // namespace hyperprof::platforms

#endif  // HYPERPROF_PLATFORMS_ENGINE_H_
