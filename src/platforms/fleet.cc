#include "platforms/fleet.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "common/thread_pool.h"
#include "platforms/platforms.h"
#include "storage/provisioning.h"

namespace hyperprof::platforms {

namespace {

// Seed of the merged tracer's reservoir stream and the merged profiler.
// Any fixed value works: the merge is a deterministic replay, and this
// constant is the only randomness source it constructs.
constexpr uint64_t kMergeSeed = 0x9e3779b97f4a7c15ULL;

// Windowed-profiler options from the fleet config. `defer` marks worker
// shards, whose partial windows must not be budget-evaluated; the merged
// (or fused) instance evaluates in window-index order instead.
profiling::ContinuousOptions ContinuousOptionsFrom(const FleetConfig& config,
                                                   bool defer) {
  profiling::ContinuousOptions options;
  options.window = config.continuous_window;
  options.history_size = config.continuous_history;
  options.budget = config.continuous_budget;
  options.max_anomalies = config.continuous_max_anomalies;
  options.defer_evaluation = defer;
  return options;
}

}  // namespace

/** One worker shard's private substrate (sharded platforms only). */
struct FleetSimulation::PlatformSlot::WorkerShard {
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<net::RpcSystem> rpc;
  std::unique_ptr<net::FaultModel> faults;
  std::unique_ptr<profiling::Tracer> tracer;
  std::unique_ptr<profiling::CpuProfiler> profiler;
  std::unique_ptr<profiling::ContinuousProfiler> continuous;
  std::unique_ptr<PlatformEngine> engine;
};

/**
 * ShardIo over a ShardGroup: a request hops from its worker kernel to the
 * storage kernel and the completion hops back, each hop taking exactly one
 * shard window — the modeled worker<->fileserver fabric latency that makes
 * the group's conservative epochs sound. The (lane, seq) key travels with
 * both hops; request and reply stay distinct because they differ in
 * destination.
 */
class ShardIoFabric : public ShardIo {
 public:
  /** `kernels` = worker kernels in shard order, storage kernel last. */
  ShardIoFabric(sim::ShardGroup* group, std::vector<sim::Simulator*> kernels,
                storage::DistributedFileSystem* dfs)
      : group_(group),
        kernels_(std::move(kernels)),
        storage_index_(static_cast<uint32_t>(kernels_.size() - 1)),
        dfs_(dfs) {}

  void Read(uint32_t shard, uint64_t lane, uint64_t seq,
            const net::NodeId& client, uint64_t block_id, uint64_t bytes,
            storage::DistributedFileSystem::ReadCallback on_done) override {
    Submit(shard, lane, seq, client, block_id, bytes, /*replication=*/0,
           /*is_write=*/false, std::move(on_done));
  }

  void Write(uint32_t shard, uint64_t lane, uint64_t seq,
             const net::NodeId& client, uint64_t block_id, uint64_t bytes,
             uint32_t replication,
             storage::DistributedFileSystem::ReadCallback on_done) override {
    Submit(shard, lane, seq, client, block_id, bytes, replication,
           /*is_write=*/true, std::move(on_done));
  }

 private:
  struct Request {
    ShardIoFabric* fabric = nullptr;
    uint32_t shard = 0;
    uint64_t lane = 0;
    uint64_t seq = 0;
    net::NodeId client;
    uint64_t block_id = 0;
    uint64_t bytes = 0;
    uint32_t replication = 0;
    bool is_write = false;
    storage::DistributedFileSystem::ReadCallback on_done;
  };

  void Submit(uint32_t shard, uint64_t lane, uint64_t seq,
              const net::NodeId& client, uint64_t block_id, uint64_t bytes,
              uint32_t replication, bool is_write,
              storage::DistributedFileSystem::ReadCallback on_done) {
    auto req = std::make_shared<Request>();
    req->fabric = this;
    req->shard = shard;
    req->lane = lane;
    req->seq = seq;
    req->client = client;
    req->block_id = block_id;
    req->bytes = bytes;
    req->replication = replication;
    req->is_write = is_write;
    req->on_done = std::move(on_done);
    group_->Post(shard, storage_index_,
                 kernels_[shard]->Now() + group_->window(), lane, seq,
                 [req]() { req->fabric->Serve(req); });
  }

  void Serve(const std::shared_ptr<Request>& req) {
    auto reply = [req](const storage::IoResult& io) {
      ShardIoFabric* fabric = req->fabric;
      fabric->group_->Post(
          fabric->storage_index_, req->shard,
          fabric->kernels_[fabric->storage_index_]->Now() +
              fabric->group_->window(),
          req->lane, req->seq, [req, io]() { req->on_done(io); });
    };
    if (req->is_write) {
      dfs_->Write(req->client, req->block_id, req->bytes, req->replication,
                  std::move(reply));
    } else {
      dfs_->Read(req->client, req->block_id, req->bytes, std::move(reply));
    }
  }

  sim::ShardGroup* group_;
  std::vector<sim::Simulator*> kernels_;
  uint32_t storage_index_;
  storage::DistributedFileSystem* dfs_;
};

FleetSimulation::FleetSimulation(FleetConfig config)
    : config_(config), registry_(profiling::BuildFleetRegistry()) {}

FleetSimulation::~FleetSimulation() = default;

uint64_t FleetSimulation::PlatformSeed(uint64_t fleet_seed,
                                       size_t platform_index) {
  // SplitMix64 finalizer over the (seed, index) pair: well-distributed
  // per-platform streams even for adjacent fleet seeds. The small additive
  // constant selects the stream family under which the default calibration
  // fleet reproduces the paper's headline query-group shares (the
  // statistical recovery tests assert sharp thresholds on them).
  uint64_t z = fleet_seed + 4 +
               0x9e3779b97f4a7c15ULL *
                   (static_cast<uint64_t>(platform_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void FleetSimulation::AddPlatform(PlatformSpec spec) {
  assert(!started_);
  if (config_.shards_per_platform > 0) {
    AddShardedPlatform(std::move(spec));
    return;
  }
  auto slot = std::make_unique<PlatformSlot>();
  // Every stochastic component of the shard forks from one per-platform
  // stream, so a shard's behaviour depends only on (seed, index) — never
  // on which host thread runs it or what the other platforms do.
  Rng shard_rng(PlatformSeed(config_.seed, slots_.size()));
  slot->spec = spec;
  BuildStoragePlane(*slot, shard_rng);
  profiling::TracerOptions tracer_options;
  tracer_options.retention = config_.trace_retention;
  tracer_options.reservoir_capacity = config_.trace_reservoir_capacity;
  slot->tracer = std::make_unique<profiling::Tracer>(
      config_.trace_sample_one_in, shard_rng.Fork(), tracer_options);
  slot->profiler = std::make_unique<profiling::CpuProfiler>(
      config_.profiler_period, config_.cpu_hz, shard_rng.Fork());
  if (config_.continuous_window > SimTime::Zero()) {
    slot->continuous = std::make_unique<profiling::ContinuousProfiler>(
        ContinuousOptionsFrom(config_, /*defer=*/false));
  }
  EngineContext context;
  context.simulator = slot->simulator.get();
  context.dfs = slot->dfs.get();
  context.rpc = slot->rpc.get();
  context.tracer = slot->tracer.get();
  context.profiler = slot->profiler.get();
  context.continuous = slot->continuous.get();
  context.registry = &registry_;
  context.worker_hosts = config_.worker_hosts;
  slot->engine = std::make_unique<PlatformEngine>(context, std::move(spec),
                                                  shard_rng.Fork());
  // The fault model's private stream forks LAST: every pre-existing
  // subsystem sees exactly the stream it saw before fault injection
  // existed, which is what keeps the fault-free goldens bit-identical
  // (pinned by golden_breakdown_test). Do not reorder.
  slot->faults = InstallFaults(*slot->rpc, shard_rng.Fork());
  slots_.push_back(std::move(slot));
}

void FleetSimulation::AddShardedPlatform(PlatformSpec spec) {
  const uint32_t num_shards = config_.shards_per_platform;
  auto slot = std::make_unique<PlatformSlot>();
  slot->sharded = true;
  slot->spec = spec;
  // Mirror the fused fork order (rpc, dfs, tracer, profiler, engine,
  // faults LAST) so the storage plane draws the same streams in both
  // modes. The tracer/profiler/rpc/fault streams of the workers are
  // never consumed — every sharded-mode draw comes from a per-query
  // stream — so their seeds only need to be deterministic.
  Rng shard_rng(PlatformSeed(config_.seed, slots_.size()));
  // The fused slot members double as the storage plane: `simulator` is
  // the storage kernel, and rpc/dfs run on it exactly as in fused mode.
  BuildStoragePlane(*slot, shard_rng);
  Rng tracer_rng = shard_rng.Fork();
  Rng profiler_rng = shard_rng.Fork();
  Rng engine_rng = shard_rng.Fork();
  // One base for the per-query derived streams, shared by every worker:
  // a query's stream depends on its global index alone, which is the
  // whole reason any shard count recovers bit-identical results.
  const uint64_t stream_seed = engine_rng.Next();

  // Worker kernels first (kernel index == shard index), storage last.
  std::vector<sim::Simulator*> kernels;
  for (uint32_t k = 0; k < num_shards; ++k) {
    auto worker = std::make_unique<PlatformSlot::WorkerShard>();
    worker->simulator = std::make_unique<sim::Simulator>();
    worker->simulator->Reserve(4096);
    kernels.push_back(worker->simulator.get());
    slot->workers.push_back(std::move(worker));
  }
  kernels.push_back(slot->simulator.get());
  slot->group =
      std::make_unique<sim::ShardGroup>(kernels, config_.shard_window);
  slot->fabric = std::make_unique<ShardIoFabric>(slot->group.get(), kernels,
                                                 slot->dfs.get());

  // Workers retain every trace regardless of the configured retention:
  // the post-run merge replays them through a tracer built with the
  // configured retention, which is where reservoir bounds apply.
  profiling::TracerOptions worker_tracer_options;
  worker_tracer_options.retention = profiling::TraceRetention::kRetainAll;
  for (uint32_t k = 0; k < num_shards; ++k) {
    PlatformSlot::WorkerShard& worker = *slot->workers[k];
    worker.rpc = std::make_unique<net::RpcSystem>(
        worker.simulator.get(), slot->network.get(), engine_rng.Fork());
    worker.faults = InstallFaults(*worker.rpc, engine_rng.Fork());
    worker.tracer = std::make_unique<profiling::Tracer>(
        config_.trace_sample_one_in, tracer_rng.Fork(),
        worker_tracer_options);
    worker.profiler = std::make_unique<profiling::CpuProfiler>(
        config_.profiler_period, config_.cpu_hz, profiler_rng.Fork());
    if (config_.continuous_window > SimTime::Zero()) {
      worker.continuous = std::make_unique<profiling::ContinuousProfiler>(
          ContinuousOptionsFrom(config_, /*defer=*/true));
    }
    EngineContext context;
    context.simulator = worker.simulator.get();
    context.dfs = slot->dfs.get();  // unused when sharded; kept non-null
    context.rpc = worker.rpc.get();
    context.tracer = worker.tracer.get();
    context.profiler = worker.profiler.get();
    context.continuous = worker.continuous.get();
    context.registry = &registry_;
    context.shard_io = slot->fabric.get();
    context.shard_index = k;
    context.shard_count = num_shards;
    context.stream_seed = stream_seed;
    context.sample_one_in = config_.trace_sample_one_in;
    context.worker_hosts = config_.worker_hosts;
    PlatformSpec worker_spec = spec;
    // Worker-pool contention is a fused-mode feature: a finite core pool
    // is cross-query mutable state, which sharded determinism forbids.
    worker_spec.worker_cores = 0;
    worker.engine = std::make_unique<PlatformEngine>(
        context, std::move(worker_spec), engine_rng.Fork());
  }
  // Storage-plane fault stream forks LAST, as in fused mode.
  slot->faults = InstallFaults(*slot->rpc, shard_rng.Fork());
  slots_.push_back(std::move(slot));
}

void FleetSimulation::BuildStoragePlane(PlatformSlot& slot,
                                        Rng& shard_rng) const {
  slot.simulator = std::make_unique<sim::Simulator>();
  slot.simulator->Reserve(4096);
  slot.network = std::make_unique<net::NetworkModel>();
  slot.rpc = std::make_unique<net::RpcSystem>(
      slot.simulator.get(), slot.network.get(), shard_rng.Fork());
  slot.dfs = std::make_unique<storage::DistributedFileSystem>(
      slot.simulator.get(), slot.rpc.get(), config_.dfs, shard_rng.Fork());
  // Start from the warm steady state: install the hottest blocks (block
  // id == Zipf popularity rank) so the configured tier hit rates hold
  // from the first query.
  uint64_t ram_blocks = storage::MinKeysForMass(
      slot.spec.ram_hit_target, slot.spec.block_space, slot.spec.block_zipf_s);
  uint64_t ssd_blocks =
      storage::MinKeysForMass(slot.spec.ram_ssd_hit_target,
                              slot.spec.block_space, slot.spec.block_zipf_s);
  slot.dfs->PrewarmZipf(ram_blocks, ssd_blocks, slot.spec.typical_block_bytes);
}

std::unique_ptr<net::FaultModel> FleetSimulation::InstallFaults(
    net::RpcSystem& rpc, Rng rng) const {
  auto faults = std::make_unique<net::FaultModel>(std::move(rng));
  faults->set_default_faults(config_.fault);
  for (const auto& window : config_.outages) faults->AddOutage(window);
  rpc.set_fault_model(faults.get());
  return faults;
}

void FleetSimulation::AddDefaultPlatforms() {
  AddPlatform(SpannerSpec());
  AddPlatform(BigTableSpec());
  AddPlatform(BigQuerySpec());
}

void FleetSimulation::FinalizePlatform(PlatformSlot& slot) {
  // --- Tracer merge: replay worker traces in canonical order ------------
  profiling::TracerOptions options;
  options.retention = config_.trace_retention;
  options.reservoir_capacity = config_.trace_reservoir_capacity;
  slot.merged_tracer = std::make_unique<profiling::Tracer>(
      config_.trace_sample_one_in, Rng(kMergeSeed), options);
  // Every worker interned the identical name table (the engines are
  // clones of one spec); copy it in id order so the NameIds carried by
  // replayed traces resolve unchanged.
  const profiling::NameInterner& names = slot.workers[0]->tracer->names();
  for (size_t id = 1; id <= names.size(); ++id) {
    slot.merged_tracer->names().Intern(
        names.Name(static_cast<profiling::NameId>(id)));
  }
  uint64_t seen = 0;
  size_t retained = 0;
  for (const auto& worker : slot.workers) {
    seen += worker->tracer->queries_seen();
    retained += worker->tracer->traces().size();
  }
  std::vector<const profiling::QueryTrace*> all;
  all.reserve(retained);
  for (const auto& worker : slot.workers) {
    for (const auto& trace : worker->tracer->traces()) all.push_back(&trace);
  }
  // Canonical completion order: ties on `end` are broken by trace id,
  // which is the global query index — unique and shard-layout-invariant.
  std::sort(all.begin(), all.end(),
            [](const profiling::QueryTrace* a,
               const profiling::QueryTrace* b) {
              return std::tie(a->end, a->trace_id) <
                     std::tie(b->end, b->trace_id);
            });
  // Replaying through the regular Start/AddSpan/Finish pipeline renumbers
  // span ids in replay order (shard-layout-invariant), folds each trace
  // into the streaming breakdown exactly as a fused run would, and
  // applies the configured retention (reservoir bounds included).
  for (const profiling::QueryTrace* trace : all) {
    uint64_t handle = slot.merged_tracer->StartQueryForced(
        trace->platform, trace->query_type, trace->start, /*sampled=*/true,
        trace->trace_id);
    for (const profiling::Span& span : trace->spans) {
      slot.merged_tracer->AddSpan(handle, span.kind, span.name, span.start,
                                  span.end, span.parent_id);
    }
    slot.merged_tracer->FinishQuery(handle, trace->end);
  }
  // Unsampled queries only bump the seen counter.
  while (slot.merged_tracer->queries_seen() < seen) {
    slot.merged_tracer->StartQueryForced(profiling::kInvalidNameId,
                                         profiling::kInvalidNameId,
                                         SimTime::Zero(), /*sampled=*/false,
                                         0);
  }
  // --- Profiler merge ---------------------------------------------------
  // Sample order differs from a fused run, but every consumer aggregates
  // by exact-integer counter sums, so reports are order-independent.
  slot.merged_profiler = std::make_unique<profiling::CpuProfiler>(
      config_.profiler_period, config_.cpu_hz, Rng(kMergeSeed));
  for (const auto& worker : slot.workers) {
    slot.merged_profiler->AbsorbSamples(*worker->profiler);
  }
  // --- Continuous-profile merge: combine windows at the barrier ---------
  // Workers accumulated deferred (partial) windows; summing them by
  // absolute window index and evaluating in index order reproduces the
  // fused streaming aggregation bit-for-bit — integer window totals and
  // mergeable sketch bucket counts make the merge order irrelevant. Note
  // the merged tracer above replays traces with no continuous observer
  // attached: windows combine through MergeFrom, never by re-observation.
  if (config_.continuous_window > SimTime::Zero()) {
    slot.merged_continuous = std::make_unique<profiling::ContinuousProfiler>(
        ContinuousOptionsFrom(config_, /*defer=*/false));
    for (const auto& worker : slot.workers) {
      slot.merged_continuous->MergeFrom(*worker->continuous);
    }
    slot.merged_continuous->Finalize();
  }
}

void FleetSimulation::StartSlot(PlatformSlot& slot) {
  if (config_.queries_per_platform == 0) return;  // serving: Submit-driven
  if (slot.sharded) {
    for (auto& worker : slot.workers) {
      worker->engine->Run(config_.queries_per_platform,
                          config_.arrival_rate_qps, []() {});
    }
  } else {
    slot.engine->Run(config_.queries_per_platform, config_.arrival_rate_qps,
                     []() {});
  }
}

void FleetSimulation::Start() {
  assert(!started_);
  started_ = true;
  for (auto& slot_ptr : slots_) StartSlot(*slot_ptr);
}

bool FleetSimulation::AdvanceSlot(PlatformSlot& slot, SimTime until) {
  if (slot.sharded) {
    return slot.group->Advance(until, /*parallel=*/false);
  }
  if (until == SimTime::Max()) {
    slot.simulator->Run();
  } else {
    slot.simulator->RunUntil(until);
    // Seal windows the pause has passed, so live snapshots are fresh.
    // Every observation for a window ending at or before `until` has
    // already arrived (virtual time is monotone and RunUntil is
    // deadline-inclusive), so early sealing evaluates the same windows
    // with the same totals as a post-run Finalize — digests don't move.
    if (slot.continuous) slot.continuous->AdvanceTo(until);
  }
  return slot.simulator->pending_events() > 0;
}

bool FleetSimulation::Advance(SimTime until) {
  assert(started_ && !finished_);
  bool more = false;
  for (auto& slot_ptr : slots_) {
    if (AdvanceSlot(*slot_ptr, until)) more = true;
  }
  return more;
}

void FleetSimulation::FinishSlot(PlatformSlot& slot, bool parallel) {
  if (slot.sharded) {
    slot.group->Advance(SimTime::Max(), parallel);
    FinalizePlatform(slot);
  } else {
    slot.simulator->Run();
    // Seal and evaluate the trailing window(s) now that virtual time has
    // stopped advancing.
    if (slot.continuous) slot.continuous->Finalize();
  }
}

void FleetSimulation::Finish() {
  assert(started_ && !finished_);
  finished_ = true;
  for (auto& slot_ptr : slots_) FinishSlot(*slot_ptr, /*parallel=*/false);
}

void FleetSimulation::RunAll() {
  // parallelism <= 1 selects the fully serial path: no pool, no shard
  // runner threads. Otherwise the pool spreads whole platforms and
  // sharded platforms spawn their own runners (one thread per kernel);
  // with several sharded platforms this oversubscribes cores rather than
  // serializing kernels — wall-clock only, results are bit-identical
  // either way.
  const size_t threads = ThreadPool::ResolveParallelism(config_.parallelism);
  if (threads <= 1) {
    Start();
    Finish();
    return;
  }
  assert(!started_);
  started_ = true;
  finished_ = true;
  // Each platform's job schedules its own workload, so its events are
  // allocated in the malloc arena of the thread that runs them;
  // scheduling every platform on the calling thread first would strand
  // the initial event heaps in the caller's arena and raise peak RSS.
  ThreadPool pool(std::min(threads, slots_.size()));
  pool.ParallelFor(slots_.size(), [this](size_t index) {
    StartSlot(*slots_[index]);
    FinishSlot(*slots_[index], /*parallel=*/true);
  });
}

PlatformResult FleetSimulation::Result(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  assert((!slot.sharded || slot.merged_tracer) &&
         "Result() before Finish/RunAll on a sharded fleet");
  const profiling::Tracer& tracer = TracerOf(index);
  const profiling::CpuProfiler& profiler = ProfilerOf(index);
  PlatformResult result;
  result.name = slot.spec.name;
  result.queries_completed = TotalsOf(index).queries_completed;
  result.queries_sampled = tracer.queries_sampled();
  // The streaming accumulator folded every finished trace at FinishQuery
  // with the same operation order as the batch path, so this is
  // bit-identical to re-attributing the retained traces — and O(1).
  result.e2e = tracer.breakdown().e2e();
  result.cycles = profiling::ComputeCycleBreakdown(profiler, registry_);
  result.microarch = profiling::ComputeMicroarchReport(profiler, registry_);
  return result;
}

PlatformResult FleetSimulation::Result(const std::string& name) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->spec.name == name) return Result(i);
  }
  assert(false && "unknown platform");
  return PlatformResult{};
}

const std::vector<profiling::QueryTrace>& FleetSimulation::TracesOf(
    size_t index) const {
  return TracerOf(index).traces();
}

const profiling::NameInterner& FleetSimulation::NamesOf(size_t index) const {
  return TracerOf(index).names();
}

const profiling::Tracer& FleetSimulation::TracerOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  if (slot.sharded) {
    // Post-run: the canonical merged view. Mid-run (paused between
    // Advance calls): worker 0's live tracer — a representative,
    // self-consistent partial view.
    return slot.merged_tracer ? *slot.merged_tracer
                              : *slot.workers[0]->tracer;
  }
  return *slot.tracer;
}

const profiling::CpuProfiler& FleetSimulation::ProfilerOf(
    size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  if (slot.sharded) {
    return slot.merged_profiler ? *slot.merged_profiler
                                : *slot.workers[0]->profiler;
  }
  return *slot.profiler;
}

const profiling::ContinuousProfiler* FleetSimulation::ContinuousOf(
    size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  if (slot.sharded) return slot.merged_continuous.get();
  return slot.continuous.get();
}

const storage::DistributedFileSystem& FleetSimulation::DfsOf(
    size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->dfs;
}

const net::FaultModel& FleetSimulation::FaultsOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->faults;
}

const net::RpcSystem& FleetSimulation::RpcOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->rpc;
}

const PlatformEngine& FleetSimulation::EngineOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  return slot.sharded ? *slot.workers[0]->engine : *slot.engine;
}

PlatformEngine& FleetSimulation::MutableEngineOf(size_t index) {
  assert(index < slots_.size());
  PlatformSlot& slot = *slots_[index];
  assert(!slot.sharded && "serving admission requires a fused platform");
  return *slot.engine;
}

PlatformTotals FleetSimulation::TotalsOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  PlatformTotals t;
  auto add_kernel = [&t](const sim::Simulator& kernel) {
    t.events_executed += kernel.events_executed();
    t.pending_events += kernel.pending_events();
    t.cancelled_in_heap += kernel.cancelled_events();
  };
  auto add_rpc = [&t](const net::RpcSystem& rpc) {
    t.completed_calls += rpc.completed_calls();
    t.failed_calls += rpc.failed_calls();
    t.retries_issued += rpc.retries_issued();
    t.hedges_issued += rpc.hedges_issued();
    t.hedge_wins += rpc.hedge_wins();
    t.timeouts_fired += rpc.timeouts_fired();
    t.cancelled_attempts += rpc.cancelled_attempts();
    t.wasted_seconds += rpc.wasted_seconds();
  };
  auto add_faults = [&t](const net::FaultModel& faults) {
    t.fault_decisions += faults.decisions();
    t.injected_drops += faults.injected_drops();
    t.injected_errors += faults.injected_errors();
    t.injected_slowdowns += faults.injected_slowdowns();
    t.outage_hits += faults.outage_hits();
  };
  if (slot.sharded) {
    for (const auto& worker : slot.workers) {
      t.queries_completed += worker->engine->queries_completed();
      t.io_failures += worker->engine->io_failures();
      add_kernel(*worker->simulator);
      add_rpc(*worker->rpc);
      add_faults(*worker->faults);
    }
  } else {
    t.queries_completed = slot.engine->queries_completed();
    t.io_failures = slot.engine->io_failures();
  }
  add_kernel(*slot.simulator);
  add_rpc(*slot.rpc);
  add_faults(*slot.faults);
  return t;
}

ShardStats FleetSimulation::ShardStatsOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  ShardStats stats;
  if (!slot.sharded) return stats;
  stats.shard_count = static_cast<uint32_t>(slot.workers.size());
  stats.messages_posted = slot.group->messages_posted();
  stats.messages_delivered = slot.group->messages_delivered();
  stats.undelivered = slot.group->undelivered();
  stats.epochs = slot.group->epochs();
  stats.exchange_allocs = slot.group->exchange_allocs();
  stats.late_deliveries = slot.group->late_deliveries();
  return stats;
}

FleetMemoryStats FleetSimulation::MemoryStats() const {
  FleetMemoryStats stats;
  for (const auto& slot : slots_) {
    stats.kernel_bytes += slot->simulator->memory_bytes();
    if (slot->sharded) {
      for (const auto& worker : slot->workers) {
        stats.kernel_bytes += worker->simulator->memory_bytes();
        stats.tracer_bytes += worker->tracer->memory_bytes();
        stats.profiler_bytes += worker->profiler->memory_bytes();
        if (worker->continuous) {
          stats.profiler_bytes += worker->continuous->memory_bytes();
        }
      }
      if (slot->merged_tracer) {
        stats.tracer_bytes += slot->merged_tracer->memory_bytes();
      }
      if (slot->merged_profiler) {
        stats.profiler_bytes += slot->merged_profiler->memory_bytes();
      }
      if (slot->merged_continuous) {
        stats.profiler_bytes += slot->merged_continuous->memory_bytes();
      }
    } else {
      stats.tracer_bytes += slot->tracer->memory_bytes();
      stats.profiler_bytes += slot->profiler->memory_bytes();
      if (slot->continuous) {
        stats.profiler_bytes += slot->continuous->memory_bytes();
      }
    }
    // Four clusters of worker hosts per platform region (the client and
    // fan-out draw space of the engine).
    stats.simulated_workers += 4ULL * config_.worker_hosts;
  }
  stats.total_bytes =
      stats.kernel_bytes + stats.tracer_bytes + stats.profiler_bytes;
  if (stats.simulated_workers > 0) {
    stats.bytes_per_worker = static_cast<double>(stats.total_bytes) /
                             static_cast<double>(stats.simulated_workers);
  }
  return stats;
}

uint64_t FleetSimulation::total_events_executed() const {
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->simulator->events_executed();
    for (const auto& worker : slot->workers) {
      total += worker->simulator->events_executed();
    }
  }
  return total;
}

}  // namespace hyperprof::platforms
