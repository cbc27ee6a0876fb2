#include "platforms/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "consensus/paxos.h"
#include "platforms/shuffle.h"
#include "profiling/continuous.h"
#include "sim/barrier.h"

namespace hyperprof::platforms {

using profiling::BroadOf;
using profiling::FnCategory;
using profiling::SpanKind;

struct PlatformEngine::QueryState {
  uint64_t trace_id = profiling::Tracer::kNotSampled;
  size_t type_index = 0;
  net::NodeId client;
  // Sharded mode: the query's private stream and its canonical identity
  // on the cross-shard fabric. Unused (cheap to default) in legacy mode.
  Rng rng{0};
  uint64_t lane = 0;
  uint64_t msg_seq = 0;
  // Serving mode (Submit): admission time and the ticket the ServingSink
  // receives with the query's virtual latency. Unused in batch runs.
  SimTime admitted;
  uint64_t ticket = 0;
  bool has_ticket = false;
};

namespace {

/**
 * Seed of query `index`'s private stream: a SplitMix64 finalize of the
 * platform stream base. Every shard computes the same value for the same
 * index, which is the root of shard-count invariance.
 */
uint64_t DeriveQuerySeed(uint64_t base, uint64_t index) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void DirectIoPort::Submit(
    const IoRequest& request,
    storage::DistributedFileSystem::ReadCallback on_done) {
  if (request.write) {
    dfs_->Write(request.client, request.block_id, request.bytes,
                request.replication, std::move(on_done));
  } else {
    dfs_->Read(request.client, request.block_id, request.bytes,
               std::move(on_done));
  }
}

PlatformEngine::PlatformEngine(EngineContext context, PlatformSpec spec,
                               Rng rng)
    : context_(context),
      spec_(std::move(spec)),
      rng_(std::move(rng)),
      sharded_(context.shard_count > 0) {
  assert(!sharded_ || spec_.worker_cores == 0);
  assert(context_.simulator && context_.io && context_.rpc &&
         context_.tracer && context_.profiler && context_.registry &&
         context_.block_sampler);
  // Windowed profiling rides the tracer's finish path: attaching here
  // means every sampled completion feeds its window without a second
  // per-query hook in the engine hot path.
  if (context_.continuous != nullptr) {
    context_.tracer->set_continuous(context_.continuous);
  }
  std::vector<double> type_weights;
  type_weights.reserve(spec_.query_types.size());
  for (const auto& type : spec_.query_types) {
    type_weights.push_back(type.weight);
  }
  type_sampler_ = std::make_unique<AliasSampler>(std::move(type_weights));

  std::vector<double> mix_weights;
  for (size_t i = 0; i < profiling::kNumFnCategories; ++i) {
    if (spec_.compute_mix[i] > 0) {
      mix_categories_.push_back(i);
      mix_weights.push_back(spec_.compute_mix[i]);
    }
  }
  assert(!mix_categories_.empty());
  mix_sampler_ = std::make_unique<AliasSampler>(std::move(mix_weights));

  symbols_.resize(profiling::kNumFnCategories);
  for (size_t i = 0; i < profiling::kNumFnCategories; ++i) {
    symbols_[i] =
        context_.registry->SymbolsFor(static_cast<FnCategory>(i));
    if (symbols_[i].empty()) {
      // Deliberately unknown symbol: exercises the Uncategorized path.
      symbols_[i].push_back(spec_.name + "::internal::unknown_leaf");
    }
  }
  if (spec_.worker_cores > 0) {
    worker_pool_ = std::make_unique<sim::Resource>(
        context_.simulator, spec_.name + "/workers", spec_.worker_cores);
  }

  // Intern every name the query path will emit, so StartQuery/AddSpan carry
  // plain ids and the measurement path never hashes or copies a string.
  profiling::NameInterner& names = context_.tracer->names();
  platform_id_ = names.Intern(spec_.name);
  compute_span_id_ = names.Intern("compute");
  dfs_read_span_id_ = names.Intern("dfs.read");
  dfs_write_span_id_ = names.Intern("dfs.write");
  type_name_ids_.reserve(spec_.query_types.size());
  remote_info_.reserve(spec_.query_types.size());
  for (const auto& type : spec_.query_types) {
    type_name_ids_.push_back(names.Intern(type.name));
    std::vector<RemotePhaseInfo> infos(type.phases.size());
    for (size_t i = 0; i < type.phases.size(); ++i) {
      if (type.phases[i].kind == PhaseSpec::Kind::kRemote) {
        infos[i].name_id = names.Intern(type.phases[i].remote.name);
        infos[i].method = spec_.name + "." + type.phases[i].remote.name;
      }
    }
    remote_info_.push_back(std::move(infos));
  }
  // Interned last, after every workload name: fault-free traces never emit
  // these, and late interning keeps the pre-existing NameId numbering (and
  // everything keyed on it) untouched.
  dfs_retry_span_id_ = names.Intern("dfs.retry");
  dfs_hedge_span_id_ = names.Intern("dfs.hedge");
  dfs_error_span_id_ = names.Intern("dfs.error");
}

double PlatformEngine::SampleLogNormalMean(Rng& rng, double mean,
                                           double sigma) {
  // Lognormal with the requested arithmetic mean.
  double mu = std::log(mean) - sigma * sigma / 2.0;
  return rng.NextLogNormal(mu, sigma);
}

Rng& PlatformEngine::DrawStream(QueryState& query) {
  return sharded_ ? query.rng : rng_;
}

void PlatformEngine::Run(uint64_t num_queries, double arrival_rate_qps,
                         std::function<void()> on_all_done) {
  assert(arrival_rate_qps > 0);
  on_all_done_ = std::move(on_all_done);
  SimTime arrival = context_.simulator->Now();
  if (!sharded_) {
    target_ += num_queries;
    for (uint64_t i = 0; i < num_queries; ++i) {
      arrival += SimTime::FromSeconds(
          rng_.NextExponential(1.0 / arrival_rate_qps));
      size_t type_index = type_sampler_->Sample(rng_);
      context_.simulator->ScheduleAt(
          arrival, [this, type_index]() { StartQuery(type_index); });
    }
    return;
  }
  // Sharded mode: every shard walks the full arrival sequence (each gap
  // comes from its query's own stream, so the prefix sums agree across
  // shards) but schedules only the queries it owns.
  for (uint64_t i = 0; i < num_queries; ++i) {
    Rng query_rng(DeriveQuerySeed(context_.stream_seed, i));
    arrival += SimTime::FromSeconds(
        query_rng.NextExponential(1.0 / arrival_rate_qps));
    size_t type_index = type_sampler_->Sample(query_rng);
    if (i % context_.shard_count != context_.shard_index) continue;
    ++target_;
    // Packed capture (lane/type narrowed) so the arrival event stays
    // within the kernel callback's inline buffer.
    uint32_t lane32 = static_cast<uint32_t>(i);
    uint16_t type16 = static_cast<uint16_t>(type_index);
    context_.simulator->ScheduleAt(
        arrival, [this, lane32, type16, query_rng]() mutable {
          StartShardedQuery(lane32, type16, std::move(query_rng));
        });
  }
}

void PlatformEngine::SetServingSink(ServingSink sink, void* ctx) {
  serving_sink_ = sink;
  serving_ctx_ = ctx;
}

void PlatformEngine::Submit(uint64_t ticket) {
  assert(!sharded_ && "serving admission requires a fused engine");
  assert(serving_sink_ != nullptr && "SetServingSink before ticketed Submit");
  ++target_;
  auto query = AcquireQueryState();
  query->type_index = type_sampler_->Sample(rng_);
  query->ticket = ticket;
  query->has_ticket = true;
  LaunchQuery(std::move(query));
}

std::shared_ptr<PlatformEngine::QueryState>
PlatformEngine::AcquireQueryState() {
  // The most recent return is reusable once every continuation that held
  // it has been destroyed (use_count back to 1); during a burst the pool
  // simply grows to the in-flight high-water mark.
  if (!state_pool_.empty() && state_pool_.back().use_count() == 1) {
    auto query = std::move(state_pool_.back());
    state_pool_.pop_back();
    query->trace_id = profiling::Tracer::kNotSampled;
    query->type_index = 0;
    query->lane = 0;
    query->msg_seq = 0;
    query->admitted = SimTime();
    query->ticket = 0;
    query->has_ticket = false;
    return query;
  }
  return std::make_shared<QueryState>();
}

void PlatformEngine::LaunchQuery(std::shared_ptr<QueryState> query) {
  query->admitted = context_.simulator->Now();
  // Queries originate on worker hosts spread over four clusters.
  query->client = net::NodeId{
      0, static_cast<uint32_t>(rng_.NextBounded(4)),
      static_cast<uint32_t>(rng_.NextBounded(context_.worker_hosts))};
  query->trace_id = context_.tracer->StartQuery(
      platform_id_, type_name_ids_[query->type_index],
      context_.simulator->Now());
  RunPhaseGroup(std::move(query), 0);
}

void PlatformEngine::StartQuery(size_t type_index) {
  auto query = AcquireQueryState();
  query->type_index = type_index;
  LaunchQuery(std::move(query));
}

void PlatformEngine::StartShardedQuery(uint64_t lane, size_t type_index,
                                       Rng rng) {
  auto query = AcquireQueryState();
  query->type_index = type_index;
  query->lane = lane;
  query->rng = std::move(rng);
  Rng& draw = query->rng;
  query->client = net::NodeId{
      0, static_cast<uint32_t>(draw.NextBounded(4)),
      static_cast<uint32_t>(draw.NextBounded(context_.worker_hosts))};
  // The sampling decision comes from the query stream (not the tracer's)
  // and the trace id is the global query index, so the sampled set and
  // the ids are shard-layout-invariant.
  bool sampled = context_.sample_one_in <= 1 ||
                 draw.NextBounded(context_.sample_one_in) == 0;
  query->trace_id = context_.tracer->StartQueryForced(
      platform_id_, type_name_ids_[type_index], context_.simulator->Now(),
      sampled, lane + 1);
  RunPhaseGroup(query, 0);
}

void PlatformEngine::RunPhaseGroup(std::shared_ptr<QueryState> query,
                                   size_t phase_index) {
  const auto& phases = spec_.query_types[query->type_index].phases;
  if (phase_index >= phases.size()) {
    FinishQuery(query);
    return;
  }
  // Collect this phase plus any following phases flagged to overlap it.
  size_t group_end = phase_index + 1;
  while (group_end < phases.size() &&
         phases[group_end].overlap_with_previous) {
    ++group_end;
  }
  size_t group_size = group_end - phase_index;
  if (group_size == 1) {
    // Overwhelmingly common shape (every Spanner/BigTable phase list is
    // sequential): the continuation is the phase's `done` directly — no
    // barrier state, no shared count, and the closure fits Done inline.
    Done done([this, query, group_end]() { RunPhaseGroup(query, group_end); });
    RunPhase(std::move(query), phase_index, std::move(done));
    return;
  }
  auto barrier = sim::Barrier(group_size, [this, query, group_end]() {
    RunPhaseGroup(query, group_end);
  });
  for (size_t i = phase_index; i < group_end; ++i) {
    RunPhase(query, i, Done(barrier));
  }
}

void PlatformEngine::RunPhase(std::shared_ptr<QueryState> query,
                              size_t phase_index, Done done) {
  const PhaseSpec& phase =
      spec_.query_types[query->type_index].phases[phase_index];
  switch (phase.kind) {
    case PhaseSpec::Kind::kCompute:
      RunComputePhase(query, phase.compute, std::move(done));
      break;
    case PhaseSpec::Kind::kIo:
      RunIoPhase(query, phase.io, std::move(done));
      break;
    case PhaseSpec::Kind::kRemote:
      RunRemotePhase(query, phase.remote,
                     remote_info_[query->type_index][phase_index],
                     std::move(done));
      break;
  }
}

void PlatformEngine::RunComputePhase(std::shared_ptr<QueryState> query,
                                     const ComputePhaseSpec& phase,
                                     Done done) {
  Rng& draw = DrawStream(*query);
  double total = SampleLogNormalMean(draw, phase.mean_seconds, phase.sigma);
  // Decompose the phase into categorized leaf-function activities and
  // report each to the fleet CPU profiler.
  double budget = total;
  while (budget > 1e-9) {
    size_t category_index = mix_categories_[mix_sampler_->Sample(draw)];
    double duration = std::min(
        budget, draw.NextExponential(spec_.activity_mean_seconds));
    const auto& pool = symbols_[category_index];
    const std::string& symbol = pool[draw.NextBounded(pool.size())];
    FnCategory category = static_cast<FnCategory>(category_index);
    const auto& microarch =
        spec_.microarch[static_cast<size_t>(BroadOf(category))];
    if (sharded_) {
      // Sampling draws from the query stream: sample counts and counter
      // noise stay properties of the query, not of kernel co-residency.
      context_.profiler->RecordActivity(
          symbol, SimTime::FromSeconds(duration), microarch, draw);
    } else {
      context_.profiler->RecordActivity(
          symbol, SimTime::FromSeconds(duration), microarch);
    }
    budget -= duration;
  }
  SimTime span_length = SimTime::FromSeconds(total);
  if (worker_pool_ != nullptr) {
    // Finite cores: the phase queues for a core, and the CPU span covers
    // only the on-core time (queueing is unattributed wait). Acquire takes
    // a copyable std::function, so the move-only Done rides a shared_ptr.
    auto done_shared = std::make_shared<Done>(std::move(done));
    worker_pool_->Acquire([this, query, span_length, done_shared]() {
      SimTime start = context_.simulator->Now();
      context_.tracer->AddSpan(query->trace_id, SpanKind::kCpu,
                               compute_span_id_, start, start + span_length);
      context_.simulator->Schedule(span_length, [this, done_shared]() {
        worker_pool_->Release();
        (*done_shared)();
      });
    });
    return;
  }
  SimTime start = context_.simulator->Now();
  context_.tracer->AddSpan(query->trace_id, SpanKind::kCpu, compute_span_id_,
                           start, start + span_length);
  context_.simulator->Schedule(span_length, std::move(done));
}

void PlatformEngine::RunIoPhase(std::shared_ptr<QueryState> query,
                                const IoPhaseSpec& phase, Done done) {
  assert(phase.num_blocks > 0 && phase.parallelism > 0);
  // Issue accesses in waves of `parallelism`.
  auto remaining = std::make_shared<int>(phase.num_blocks);
  auto issue_wave = std::make_shared<std::function<void()>>();
  auto done_shared = std::make_shared<Done>(std::move(done));
  // The wave closure must reference itself to reissue; capture weakly so
  // the chain (barrier -> issue_wave -> closure) has no ownership cycle
  // and frees once the final wave's barrier fires.
  *issue_wave = [this, query, phase, remaining,
                 weak_wave = std::weak_ptr<std::function<void()>>(issue_wave),
                 done_shared]() {
    if (*remaining <= 0) {
      (*done_shared)();
      return;
    }
    int wave = std::min(*remaining, phase.parallelism);
    *remaining -= wave;
    // Invocation implies a live strong ref (the caller's, or the previous
    // wave's barrier), so the lock cannot fail.
    auto self = weak_wave.lock();
    auto barrier = sim::Barrier(
        static_cast<size_t>(wave), [self]() { (*self)(); });
    for (int i = 0; i < wave; ++i) {
      uint64_t block_id = context_.block_sampler->Sample(DrawStream(*query));
      SimTime start = context_.simulator->Now();
      auto on_io = [this, query, start, barrier,
                    name = phase.write ? dfs_write_span_id_
                                       : dfs_read_span_id_](
                       const storage::IoResult& io) {
        SimTime end = context_.simulator->Now();
        context_.tracer->AddSpan(query->trace_id, SpanKind::kIo, name, start,
                                 end);
        if (io.attempts > 1 || io.hedged) {
          // Annotate wasted work inside the IO span's interval: same-kind
          // overlapping spans union away in attribution, so these are
          // aggregate-neutral markers that ComputeResilienceReport mines.
          // One annotation per extra attempt; the first carries the wasted
          // in-flight time as its extent.
          SimTime anno_start = end - io.wasted_time;
          if (anno_start < start) anno_start = start;
          context_.tracer->AddSpan(
              query->trace_id, SpanKind::kIo,
              io.hedged ? dfs_hedge_span_id_ : dfs_retry_span_id_,
              anno_start, end);
          for (uint32_t extra = 2; extra < io.attempts; ++extra) {
            context_.tracer->AddSpan(query->trace_id, SpanKind::kIo,
                                     dfs_retry_span_id_, end, end);
          }
        }
        if (!io.ok()) {
          ++io_failures_;
          context_.tracer->AddSpan(query->trace_id, SpanKind::kIo,
                                   dfs_error_span_id_, end, end);
        }
        barrier();
      };
      IoRequest request;
      request.shard = context_.shard_index;
      request.lane = query->lane;
      request.seq = query->msg_seq++;
      request.client = query->client;
      request.block_id = block_id;
      request.bytes = phase.block_bytes;
      request.replication = phase.write_replication;
      request.write = phase.write;
      context_.io->Submit(request, on_io);
    }
  };
  (*issue_wave)();
}

void PlatformEngine::RunRemotePhase(std::shared_ptr<QueryState> query,
                                    const RemotePhaseSpec& phase,
                                    const RemotePhaseInfo& info, Done done) {
  assert(phase.fanout > 0);
  SimTime start = context_.simulator->Now();
  // Shuffle/paxos completion hooks are copyable std::functions, so the
  // move-only Done rides a shared_ptr through `finish`.
  auto done_shared = std::make_shared<Done>(std::move(done));
  auto finish = [this, query, start, name = info.name_id, done_shared]() {
    context_.tracer->AddSpan(query->trace_id, SpanKind::kRemoteWork, name,
                             start, context_.simulator->Now());
    (*done_shared)();
  };
  Rng& draw = DrawStream(*query);
  const uint32_t hosts = context_.worker_hosts;
  if (phase.use_shuffle) {
    // Execute a real distributed shuffle: fanout mappers stream to
    // fanout reducers; the span covers the shuffle makespan.
    ShuffleParams params;
    params.num_mappers = phase.fanout;
    params.num_reducers = phase.fanout;
    params.bytes_per_mapper = phase.request_bytes;
    params.worker_hosts = hosts;
    params.private_rpc_draws = sharded_;
    auto shuffle = std::make_shared<ShuffleOperation>(
        context_.simulator, context_.rpc, params, draw.Fork());
    shuffle->Run(query->client,
                 [shuffle, finish = std::move(finish)](
                     const ShuffleResult&) { finish(); });
    return;
  }
  if (phase.use_paxos) {
    // Execute a real consensus round: the commit value is this query's
    // mutation id, acceptors are replica peers.
    std::vector<net::NodeId> acceptors;
    for (int i = 0; i < phase.fanout; ++i) {
      if (phase.cross_region) {
        acceptors.push_back(
            net::NodeId{static_cast<uint32_t>(i % 3),
                        static_cast<uint32_t>(draw.NextBounded(4)),
                        static_cast<uint32_t>(draw.NextBounded(hosts))});
      } else {
        acceptors.push_back(
            net::NodeId{0, static_cast<uint32_t>(i % 4),
                        static_cast<uint32_t>(draw.NextBounded(hosts))});
      }
    }
    consensus::PaxosParams params;
    params.acceptor_service_time =
        SimTime::FromSeconds(phase.server_seconds_mean);
    params.private_rpc_draws = sharded_;
    auto group = std::make_shared<consensus::PaxosGroup>(
        context_.simulator, context_.rpc, std::move(acceptors), params,
        draw.Fork());
    uint32_t proposer_id =
        static_cast<uint32_t>(draw.NextBounded(1 << 15)) + 1;
    // The commit value is this query's lane. It never reaches an output:
    // message sizes are fixed, and the chosen value is discarded.
    group->Propose(
        query->client, proposer_id, "commit-" + std::to_string(query->lane),
        [group, finish = std::move(finish)](
            const consensus::ProposeResult&) { finish(); });
    return;
  }
  auto barrier =
      sim::Barrier(static_cast<size_t>(phase.fanout), std::move(finish));
  for (int i = 0; i < phase.fanout; ++i) {
    net::NodeId peer;
    if (phase.cross_region) {
      peer = net::NodeId{1 + static_cast<uint32_t>(draw.NextBounded(2)),
                         static_cast<uint32_t>(draw.NextBounded(4)),
                         static_cast<uint32_t>(draw.NextBounded(hosts))};
    } else {
      peer = net::NodeId{0, static_cast<uint32_t>(draw.NextBounded(4)),
                         static_cast<uint32_t>(draw.NextBounded(hosts))};
    }
    net::RpcOptions options;
    options.method = info.method;  // pre-built, no per-RPC allocation
    options.request_bytes = phase.request_bytes;
    options.response_bytes = phase.response_bytes;
    // Sharded mode: jitter/fault draws ride the query stream (read
    // synchronously inside CallFixed, so the pointer's lifetime is safe).
    if (sharded_) options.rng = &query->rng;
    double server_s = SampleLogNormalMean(draw, phase.server_seconds_mean,
                                          phase.server_sigma);
    context_.rpc->CallFixed(query->client, peer, options,
                            SimTime::FromSeconds(server_s),
                            [barrier](const net::RpcResult&) { barrier(); });
  }
}

void PlatformEngine::FinishQuery(std::shared_ptr<QueryState> query) {
  context_.tracer->FinishQuery(query->trace_id, context_.simulator->Now());
  ++completed_;
  if (completed_ == target_ && on_all_done_) {
    // The workload has drained: advance the windowed profiler to the
    // final virtual timestamp so every window that ended before it is
    // sealed (the fleet's post-run Finalize closes the last one).
    if (context_.continuous != nullptr) {
      context_.continuous->AdvanceTo(context_.simulator->Now());
    }
    auto done = std::move(on_all_done_);
    on_all_done_ = nullptr;
    done();
  }
  if (query->has_ticket) {
    query->has_ticket = false;
    serving_sink_(serving_ctx_, query->ticket,
                  context_.simulator->Now() - query->admitted);
  }
  // Recycle: once the in-flight continuations that still reference this
  // state unwind, AcquireQueryState hands it to the next admission.
  state_pool_.push_back(std::move(query));
}

}  // namespace hyperprof::platforms
