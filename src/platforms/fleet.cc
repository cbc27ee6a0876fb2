#include "platforms/fleet.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "common/parallel_for.h"
#include "common/record_pool.h"
#include "platforms/platforms.h"
#include "storage/provisioning.h"

namespace hyperprof::platforms {

namespace {

// Seed of the merged tracer's reservoir stream. Any fixed value works:
// the merge is a deterministic replay, and this constant is the only
// randomness source it constructs.
constexpr uint64_t kMergeSeed = 0x9e3779b97f4a7c15ULL;

// A sharded platform's epoch window: the one-way worker<->storage fabric
// latency, and so the lookahead that makes the shard group's epochs
// sound. It is part of the model (fleet_sharded's pinned digest depends
// on it); the shard count is not.
constexpr SimTime kShardWindow = SimTime::Micros(50);

// Every CPU profiler samples once per simulated ms on a 3 GHz core, and
// every continuous profiler logs at most 64 anomalies (it counts the rest).
constexpr SimTime kProfilerPeriod = SimTime::Micros(1000);
constexpr double kCpuHz = 3.0e9;
constexpr size_t kContinuousMaxAnomalies = 64;

// Trace options the fleet config asks for: the fused tracer's and the
// sharded merge's.
profiling::TracerOptions TracerOptionsFrom(const FleetConfig& config) {
  profiling::TracerOptions options;
  options.retention = config.trace_retention;
  options.reservoir_capacity = config.trace_reservoir_capacity;
  return options;
}

// Windowed-profiler options from the fleet config. `defer` marks worker
// shards, whose partial windows must not be budget-evaluated; the merged
// (or fused) instance evaluates in window-index order instead.
profiling::ContinuousOptions ContinuousOptionsFrom(const FleetConfig& config,
                                                   bool defer) {
  profiling::ContinuousOptions options;
  options.window = config.continuous_window;
  options.history_size = config.continuous_history;
  options.budget = config.continuous_budget;
  options.max_anomalies = kContinuousMaxAnomalies;
  options.defer_evaluation = defer;
  return options;
}

/**
 * IoPort over a ShardGroup: a request hops from its worker kernel to the
 * storage kernel and the completion hops back, each hop taking exactly one
 * shard window — the modeled worker<->fileserver fabric latency that makes
 * the group's conservative epochs sound. The (lane, seq) key travels with
 * both hops; request and reply stay distinct because they differ in
 * destination. Both hops capture only the fabric and a pooled Request
 * record, which also carries the reply's IoResult, so every payload fits
 * an envelope inline and a warmed fabric allocates nothing per IO.
 */
class ShardIoFabric : public IoPort {
 public:
  /** `kernels` = worker kernels in shard order, storage kernel last. */
  ShardIoFabric(sim::ShardGroup* group, std::vector<sim::Simulator*> kernels,
                storage::DistributedFileSystem* dfs)
      : group_(group),
        kernels_(std::move(kernels)),
        storage_index_(static_cast<uint32_t>(kernels_.size() - 1)),
        storage_(dfs) {}

  void Submit(const IoRequest& request,
              storage::DistributedFileSystem::ReadCallback on_done) override {
    RequestRef req = requests_.Acquire();
    req->io = request;
    req->on_done = std::move(on_done);
    group_->Post(request.shard, storage_index_,
                 kernels_[request.shard]->Now() + group_->window(),
                 request.lane, request.seq, [this, req]() { Serve(req); });
  }

 private:
  /** One IO in flight over the fabric. */
  struct Request {
    IoRequest io;
    storage::DistributedFileSystem::ReadCallback on_done;
    // Set on the storage kernel, read on the worker after the reply hop.
    storage::IoResult result;

    void Recycle() { on_done = nullptr; }
  };
  using RequestRef = RecordPool<Request>::Ref;

  void Serve(const RequestRef& req) {
    storage_.Submit(req->io, [this, req](const storage::IoResult& io) {
      req->result = io;
      group_->Post(storage_index_, req->io.shard,
                   kernels_[storage_index_]->Now() + group_->window(),
                   req->io.lane, req->io.seq,
                   [req]() { req->on_done(req->result); });
    });
  }

  sim::ShardGroup* group_;
  std::vector<sim::Simulator*> kernels_;
  uint32_t storage_index_;
  DirectIoPort storage_;  // the filesystem, on the storage kernel
  RecordPool<Request> requests_;
};

}  // namespace

FleetSimulation::FleetSimulation(FleetConfig config)
    : config_(config), registry_(profiling::BuildFleetRegistry()) {}

FleetSimulation::~FleetSimulation() = default;

uint64_t FleetSimulation::PlatformSeed(uint64_t fleet_seed,
                                       size_t platform_index) {
  // SplitMix64 finalizer over the (seed, index) pair: well-distributed
  // per-platform streams even for adjacent fleet seeds.
  uint64_t z = fleet_seed + 0x9e3779b97f4a7c15ULL *
                                (static_cast<uint64_t>(platform_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void FleetSimulation::AddPlatform(PlatformSpec spec) {
  assert(!started_);
  const uint32_t shards = config_.shards_per_platform;
  const bool sharded = shards > 0;
  auto slot = std::make_unique<PlatformSlot>();
  slot->spec = spec;
  slot->kernels.resize(shards + 1);
  // Every stochastic component of the platform forks from one per-platform
  // stream, so its behaviour depends only on (seed, index) — never on
  // which host thread runs it or what the other platforms do. Both shapes
  // fork in the same order (storage plane, tracer, profiler, engine,
  // faults LAST), so the storage plane draws the same streams in both.
  Rng platform_rng(PlatformSeed(config_.seed, slots_.size()));
  BuildStoragePlane(*slot, platform_rng);
  Rng tracer_rng = platform_rng.Fork();
  Rng profiler_rng = platform_rng.Fork();
  Rng engine_rng = platform_rng.Fork();
  // One CPU profiler for the platform. A fused engine samples from the
  // profiler's own stream, sharded engines from each query's stream, so
  // every engine of either shape records into this one.
  slot->profiler = std::make_unique<profiling::CpuProfiler>(
      kProfilerPeriod, kCpuHz, std::move(profiler_rng));

  EngineContext context;
  context.registry = &registry_;
  context.profiler = slot->profiler.get();
  profiling::TracerOptions tracer_options = TracerOptionsFrom(config_);
  if (sharded) {
    for (uint32_t k = 0; k < shards; ++k) {
      slot->kernels[k].simulator = std::make_unique<sim::Simulator>();
      slot->kernels[k].simulator->Reserve(4096);
    }
    std::vector<sim::Simulator*> kernels;
    for (const PlatformSlot::Kernel& kernel : slot->kernels) {
      kernels.push_back(kernel.simulator.get());
    }
    slot->group =
        std::make_unique<sim::ShardGroup>(kernels, kShardWindow);
    slot->io = std::make_unique<ShardIoFabric>(slot->group.get(), kernels,
                                               slot->dfs.get());
    context.shard_count = shards;
    // One base for the per-query derived streams, shared by every worker:
    // a query's stream depends on its global index alone, which is the
    // whole reason any shard count recovers bit-identical results. The
    // workers' own tracer/rpc/fault streams are never consumed, so their
    // seeds only need to be deterministic.
    context.stream_seed = engine_rng.Next();
    // Worker-pool contention is a fused-mode feature: a finite core pool
    // is cross-query mutable state, which sharded determinism forbids.
    spec.worker_cores = 0;
    // Workers retain every trace regardless of the configured retention:
    // the post-run merge replays them through a tracer built with the
    // configured retention, which is where reservoir bounds apply.
    tracer_options.retention = profiling::TraceRetention::kRetainAll;
  } else {
    slot->io = std::make_unique<DirectIoPort>(slot->dfs.get());
  }
  context.io = slot->io.get();

  // A fused platform's one engine runs on the storage kernel and uses the
  // tracer and engine streams directly; each sharded worker forks its own
  // from them.
  for (uint32_t k = 0; k < std::max(shards, 1u); ++k) {
    PlatformSlot::Kernel& kernel = slot->kernels[k];
    if (sharded) {
      kernel.rpc = std::make_unique<net::RpcSystem>(
          kernel.simulator.get(), slot->network.get(), engine_rng.Fork());
      kernel.faults = InstallFaults(*kernel.rpc, engine_rng.Fork());
    }
    PlatformSlot::Engine& engine = slot->engines.emplace_back();
    engine.tracer = std::make_unique<profiling::Tracer>(
        config_.trace_sample_one_in,
        sharded ? tracer_rng.Fork() : tracer_rng, tracer_options);
    if (config_.continuous_window > SimTime::Zero()) {
      engine.continuous = std::make_unique<profiling::ContinuousProfiler>(
          ContinuousOptionsFrom(config_, /*defer=*/sharded));
    }
    context.simulator = kernel.simulator.get();
    context.rpc = kernel.rpc.get();
    context.tracer = engine.tracer.get();
    context.continuous = engine.continuous.get();
    context.shard_index = k;
    engine.engine = std::make_unique<PlatformEngine>(
        context, spec, sharded ? engine_rng.Fork() : engine_rng);
  }
  // The storage plane's fault stream forks LAST: every pre-existing
  // subsystem sees exactly the stream it saw before fault injection
  // existed, which is what keeps the fault-free goldens bit-identical
  // (pinned by golden_breakdown_test). Do not reorder.
  slot->storage().faults =
      InstallFaults(*slot->storage().rpc, platform_rng.Fork());
  slots_.push_back(std::move(slot));
}

void FleetSimulation::BuildStoragePlane(PlatformSlot& slot,
                                        Rng& platform_rng) const {
  PlatformSlot::Kernel& storage = slot.storage();
  storage.simulator = std::make_unique<sim::Simulator>();
  storage.simulator->Reserve(4096);
  slot.network = std::make_unique<net::NetworkModel>();
  storage.rpc = std::make_unique<net::RpcSystem>(
      storage.simulator.get(), slot.network.get(), platform_rng.Fork());
  slot.dfs = std::make_unique<storage::DistributedFileSystem>(
      storage.simulator.get(), storage.rpc.get(), config_.dfs,
      platform_rng.Fork());
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
  slot.merged_tracer = std::make_unique<profiling::Tracer>(
      config_.trace_sample_one_in, Rng(kMergeSeed), TracerOptionsFrom(config_));
  // Every worker interned the identical name table (the engines are
  // clones of one spec); copy it in id order so the NameIds carried by
  // replayed traces resolve unchanged.
  const profiling::NameInterner& names = slot.engines[0].tracer->names();
  for (size_t id = 1; id <= names.size(); ++id) {
    slot.merged_tracer->names().Intern(
        names.Name(static_cast<profiling::NameId>(id)));
  }
  uint64_t seen = 0;
  size_t retained = 0;
  for (const PlatformSlot::Engine& engine : slot.engines) {
    seen += engine.tracer->queries_seen();
    retained += engine.tracer->traces().size();
  }
  std::vector<const profiling::QueryTrace*> all;
  all.reserve(retained);
  for (const PlatformSlot::Engine& engine : slot.engines) {
    for (const auto& trace : engine.tracer->traces()) all.push_back(&trace);
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
    for (const PlatformSlot::Engine& engine : slot.engines) {
      slot.merged_continuous->MergeFrom(*engine.continuous);
    }
    slot.merged_continuous->Finalize();
  }
}

void FleetSimulation::StartSlot(PlatformSlot& slot) {
  if (config_.queries_per_platform == 0) return;  // serving: Submit-driven
  for (PlatformSlot::Engine& engine : slot.engines) {
    engine.engine->Run(config_.queries_per_platform, config_.arrival_rate_qps);
  }
}

void FleetSimulation::Start() {
  assert(!started_);
  started_ = true;
  for (auto& slot_ptr : slots_) StartSlot(*slot_ptr);
}

bool FleetSimulation::AdvanceSlot(PlatformSlot& slot, SimTime until) {
  if (slot.group) return slot.group->Advance(until);
  sim::Simulator& kernel = *slot.storage().simulator;
  profiling::ContinuousProfiler* continuous = slot.engines[0].continuous.get();
  if (until == SimTime::Max()) {
    kernel.Run();
  } else {
    kernel.RunUntil(until);
    // Seal windows the pause has passed, so live snapshots are fresh.
    // Every observation for a window ending at or before `until` has
    // already arrived (virtual time is monotone and RunUntil is
    // deadline-inclusive), so early sealing evaluates the same windows
    // with the same totals as a post-run Finalize — digests don't move.
    if (continuous) continuous->AdvanceTo(until);
  }
  return kernel.pending_events() > 0;
}

bool FleetSimulation::Advance(SimTime until) {
  assert(started_ && !finished_);
  bool more = false;
  for (auto& slot_ptr : slots_) {
    if (AdvanceSlot(*slot_ptr, until)) more = true;
  }
  return more;
}

void FleetSimulation::FinishSlot(PlatformSlot& slot) {
  if (slot.group) {
    slot.group->Advance(SimTime::Max());
    FinalizePlatform(slot);
  } else {
    slot.storage().simulator->Run();
    // Seal and evaluate the trailing window(s) now that virtual time has
    // stopped advancing.
    if (auto* continuous = slot.engines[0].continuous.get()) {
      continuous->Finalize();
    }
  }
}

void FleetSimulation::Finish() {
  assert(started_ && !finished_);
  finished_ = true;
  for (auto& slot_ptr : slots_) FinishSlot(*slot_ptr);
}

void FleetSimulation::RunAll() {
  assert(!started_);
  started_ = true;
  finished_ = true;
  // One job per platform runs both Start()'s and Finish()'s steps, so a
  // platform's events are allocated in the malloc arena of the thread
  // that runs them; scheduling every platform on the calling thread first
  // would strand the initial event heaps in the caller's arena and raise
  // peak RSS. Results are bit-identical at every parallelism.
  ParallelFor(slots_.size(), config_.parallelism, [this](size_t index) {
    StartSlot(*slots_[index]);
    FinishSlot(*slots_[index]);
  });
}

PlatformResult FleetSimulation::Result(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  assert((!slot.group || slot.merged_tracer) &&
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
  // A sharded platform's canonical merged view once finished; before that
  // (and always when fused) engine 0's live tracer — when sharded, a
  // representative, self-consistent partial view.
  return slot.merged_tracer ? *slot.merged_tracer : *slot.engines[0].tracer;
}

const profiling::CpuProfiler& FleetSimulation::ProfilerOf(
    size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->profiler;
}

const profiling::ContinuousProfiler* FleetSimulation::ContinuousOf(
    size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  if (slot.group) return slot.merged_continuous.get();
  return slot.engines[0].continuous.get();
}

const storage::DistributedFileSystem& FleetSimulation::DfsOf(
    size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->dfs;
}

const net::FaultModel& FleetSimulation::FaultsOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->storage().faults;
}

const net::RpcSystem& FleetSimulation::RpcOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->storage().rpc;
}

const PlatformEngine& FleetSimulation::EngineOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->engines[0].engine;
}

PlatformEngine& FleetSimulation::MutableEngineOf(size_t index) {
  assert(index < slots_.size());
  PlatformSlot& slot = *slots_[index];
  assert(!slot.group && "serving admission requires a fused platform");
  return *slot.engines[0].engine;
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
  for (const PlatformSlot::Engine& engine : slot.engines) {
    t.queries_completed += engine.engine->queries_completed();
    t.io_failures += engine.engine->io_failures();
  }
  // Kernel order (workers, then storage) fixes the floating-point
  // summation order of wasted_seconds.
  for (const PlatformSlot::Kernel& kernel : slot.kernels) {
    add_kernel(*kernel.simulator);
    add_rpc(*kernel.rpc);
    add_faults(*kernel.faults);
  }
  return t;
}

ShardStats FleetSimulation::ShardStatsOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  ShardStats stats;
  if (!slot.group) return stats;
  stats.shard_count = static_cast<uint32_t>(slot.engines.size());
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
    for (const PlatformSlot::Kernel& kernel : slot->kernels) {
      stats.kernel_bytes += kernel.simulator->memory_bytes();
    }
    stats.profiler_bytes += slot->profiler->memory_bytes();
    for (const PlatformSlot::Engine& engine : slot->engines) {
      stats.tracer_bytes += engine.tracer->memory_bytes();
      if (engine.continuous) {
        stats.profiler_bytes += engine.continuous->memory_bytes();
      }
    }
    if (slot->merged_tracer) {
      stats.tracer_bytes += slot->merged_tracer->memory_bytes();
    }
    if (slot->merged_continuous) {
      stats.profiler_bytes += slot->merged_continuous->memory_bytes();
    }
    // Four clusters of worker hosts per platform region (the client and
    // fan-out draw space of the engine).
    stats.simulated_workers += 4ULL * kWorkerHosts;
    stats.cache_bytes += slot->dfs->memory_bytes();
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
    for (const PlatformSlot::Kernel& kernel : slot->kernels) {
      total += kernel.simulator->events_executed();
    }
  }
  return total;
}

}  // namespace hyperprof::platforms
