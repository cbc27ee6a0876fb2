#ifndef HYPERPROF_PLATFORMS_ENGINE_H_
#define HYPERPROF_PLATFORMS_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/record_pool.h"
#include "common/rng.h"
#include "consensus/paxos.h"
#include "net/rpc.h"
#include "platforms/shuffle.h"
#include "platforms/spec.h"
#include "profiling/function_registry.h"
#include "profiling/sampler.h"
#include "profiling/tracer.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "storage/dfs.h"

namespace hyperprof::platforms {

/** One storage access of an IO phase. */
struct IoRequest {
  // Issuing shard and the (lane, seq) key that orders same-instant
  // cross-shard messages: `lane` is the issuing query's global index (its
  // index in its Run, or its admission count for a ticketed Submit) and
  // `seq` a per-query message counter. Only the shard fabric reads them.
  uint32_t shard = 0;
  uint64_t lane = 0;
  uint64_t seq = 0;
  net::NodeId client;
  uint64_t block_id = 0;
  uint64_t bytes = 0;
  uint32_t replication = 0;  // writes only
  bool write = false;
};

/**
 * Where an engine's storage IO goes. A fused platform's port calls the
 * filesystem on the engine's own kernel (DirectIoPort); a sharded
 * platform's port is the shard fabric, which carries the request to the
 * storage kernel and the completion back to the issuing shard, each hop
 * taking one shard window (fleet.cc).
 */
class IoPort {
 public:
  virtual ~IoPort() = default;

  virtual void Submit(const IoRequest& request,
                      storage::DistributedFileSystem::ReadCallback on_done) = 0;
};

/** IoPort straight onto a filesystem on the engine's kernel. */
class DirectIoPort : public IoPort {
 public:
  explicit DirectIoPort(storage::DistributedFileSystem* dfs) : dfs_(dfs) {}

  void Submit(const IoRequest& request,
              storage::DistributedFileSystem::ReadCallback on_done) override;

 private:
  storage::DistributedFileSystem* dfs_;
};

/** Everything a platform engine needs from the substrate. */
struct EngineContext {
  sim::Simulator* simulator = nullptr;
  IoPort* io = nullptr;
  net::RpcSystem* rpc = nullptr;
  profiling::Tracer* tracer = nullptr;
  profiling::CpuProfiler* profiler = nullptr;
  const profiling::FunctionRegistry* registry = nullptr;
  // Optional continuous (windowed) profiler. The engine attaches it to the
  // tracer so every sampled finish lands in its virtual-time window; the
  // fleet seals the windows (FleetSimulation::Advance and Finish). Worker
  // shards carry a deferred-evaluation instance that the post-run merge
  // combines at the barrier (see profiling/continuous.h).
  profiling::ContinuousProfiler* continuous = nullptr;

  // --- Sharded mode (FleetConfig::shards_per_platform > 0) ---
  // When `shard_count` is nonzero the engine runs in per-query-stream
  // mode: it owns queries whose global index is congruent to
  // `shard_index` mod `shard_count`, derives every stochastic draw for a
  // query from a stream seeded by (stream_seed, query index), and draws
  // trace-sampling decisions itself at the tracer's rate (forced into the
  // tracer). All of this makes a query's simulated timeline a function of
  // its index alone, which is what lets any shard count produce
  // bit-identical platform results.
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;  // 0 = legacy fused mode
  uint64_t stream_seed = 0;  // base of the per-query derived streams
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
   * Plans `num_queries` arrivals at `arrival_rate_qps`, query i with lane
   * i; a sharded engine keeps the ones it owns. Call Simulator::Run
   * afterwards; queries_completed() counts the finished ones. The kernel
   * holds one planned arrival at a time, at the tie-break order it would
   * have had if every arrival were scheduled now
   * (Simulator::ReserveOrders). Aborts on a rate that is not positive,
   * and on a call made before every arrival of the previous one has
   * arrived.
   */
  void Run(uint64_t num_queries, double arrival_rate_qps);

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
   * current virtual time, with its admission count as lane; its
   * completion reaches the registered ServingSink with `ticket`. Aborts
   * in every build on a sharded engine, which owns a fixed partition of
   * its Run's queries, and before SetServingSink. Deterministic: given
   * the same admission sequence at the same virtual times, the simulated
   * timeline is bit-identical across runs. The steady state allocates
   * nothing (query states are pooled).
   */
  void Submit(uint64_t ticket);

  uint64_t queries_completed() const { return completed_; }
  /** IO-phase accesses that exhausted their policy and failed. */
  uint64_t io_failures() const { return io_failures_; }
  const PlatformSpec& spec() const { return spec_; }

  /** Worker-pool stats (null when contention is disabled). */
  const sim::Resource* worker_pool() const { return worker_pool_.get(); }

 private:
  /** One in-flight query. */
  struct QueryState {
    uint64_t trace_id = profiling::Tracer::kNotSampled;
    size_t type_index = 0;
    net::NodeId client;
    // The query's global index, its message counter on the shard fabric,
    // and (sharded mode) its private stream.
    uint64_t lane = 0;
    uint64_t msg_seq = 0;
    Rng rng{0};
    // Serving mode (Submit): admission time and the ticket the ServingSink
    // receives with the query's virtual latency.
    SimTime admitted;
    uint64_t ticket = 0;
    bool has_ticket = false;

    void Recycle() {}  // holds no callback and no handle
  };
  using QueryRef = RecordPool<QueryState>::Ref;

  /** One admission: a planned arrival of Run, or a ticketed Submit. */
  struct Arrival {
    SimTime when;
    size_t type_index = 0;
    uint64_t lane = 0;
    // Sharded mode: the query's private stream, already advanced past the
    // arrival and type draws.
    Rng rng{0};
  };

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

  /**
   * An IO phase: waves of `parallelism` accesses, each wave issued when
   * the previous one has completed.
   */
  struct IoWave {
    QueryRef query;
    const IoPhaseSpec* phase = nullptr;
    int remaining = 0;    // accesses not yet issued
    int outstanding = 0;  // accesses of the current wave in flight
    Done done;

    void Recycle() {
      query = QueryRef();
      done = nullptr;
    }
  };

  /** A remote phase: one fan-out of RPCs, a shuffle or a Paxos round. */
  struct RemoteOp {
    QueryRef query;
    SimTime start;
    profiling::NameId name = profiling::kInvalidNameId;
    int outstanding = 0;  // fan-out RPCs in flight
    Done done;
    // Made on a record's first shuffle or Paxos round and reused after,
    // so a reused record allocates nothing.
    std::vector<net::NodeId> acceptors;
    std::unique_ptr<ShuffleOperation> shuffle;
    std::unique_ptr<consensus::PaxosGroup> paxos;

    void Recycle() {
      query = QueryRef();
      done = nullptr;
    }
  };

  /** Phases that overlap: the query moves on once all of them are done. */
  struct PhaseGroup {
    QueryRef query;
    size_t next_phase = 0;
    size_t outstanding = 0;

    void Recycle() { query = QueryRef(); }
  };

  /** Puts plan_[index] into the kernel (or notes that the plan is done). */
  void ReleaseArrival(size_t index);
  /**
   * Starts one query at the kernel's clock, the one path of every
   * admission: query record, client draw, trace, phase 0.
   */
  void Launch(const Arrival& arrival, bool has_ticket, uint64_t ticket);
  void RunPhaseGroup(QueryRef query, size_t phase_index);
  void RunPhase(QueryRef query, size_t phase_index, Done done);
  void RunComputePhase(QueryRef query, const ComputePhaseSpec& phase,
                       Done done);
  void RunIoPhase(QueryRef query, const IoPhaseSpec& phase, Done done);
  void IssueWave(const RecordPool<IoWave>::Ref& wave);
  void OnIoDone(const RecordPool<IoWave>::Ref& wave, SimTime start,
                const storage::IoResult& io);
  void RunRemotePhase(QueryRef query, const RemotePhaseSpec& phase,
                      const RemotePhaseInfo& info, Done done);
  void FinishRemote(const RecordPool<RemoteOp>::Ref& op);
  void FinishQuery(const QueryRef& query);

  double SampleLogNormalMean(Rng& rng, double mean, double sigma);
  /** The query's own stream in sharded mode, the engine stream otherwise. */
  Rng& DrawStream(QueryState& query);

  EngineContext context_;
  PlatformSpec spec_;
  Rng rng_;
  const bool sharded_;
  // Zipf popularity over spec_.block_space, which IO phases draw block
  // ids from.
  const ZipfSampler block_sampler_;
  std::unique_ptr<AliasSampler> type_sampler_;
  std::unique_ptr<AliasSampler> mix_sampler_;
  std::vector<size_t> mix_categories_;  // categories with nonzero weight
  // Symbols per fine category, resolved once from the registry and
  // interned into the profiler.
  std::vector<std::vector<profiling::NameId>> symbols_;
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
  uint64_t submitted_ = 0;  // ticketed admissions so far: the next lane
  // Ticketed-serving completion sink (see SetServingSink).
  ServingSink serving_sink_ = nullptr;
  void* serving_ctx_ = nullptr;
  // In-flight queries and the per-phase records that hold them.
  RecordPool<QueryState> queries_;
  RecordPool<IoWave> io_waves_;
  RecordPool<RemoteOp> remote_ops_;
  RecordPool<PhaseGroup> phase_groups_;
  // Run's arrival plan; plan_[next_arrival_] is the one in the kernel.
  std::vector<Arrival> plan_;
  size_t next_arrival_ = 0;
  uint64_t plan_order_ = 0;  // tie-break order reserved for plan_[0]
};

}  // namespace hyperprof::platforms

#endif  // HYPERPROF_PLATFORMS_ENGINE_H_
