#include "platforms/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "profiling/continuous.h"

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
  // Checked in every build: a rate that is not positive (or NaN) makes
  // every gap infinite or NaN, whose conversion to SimTime is undefined,
  // and the kernel would clamp each arrival to now.
  if (!(arrival_rate_qps > 0)) {
    std::fprintf(stderr,
                 "PlatformEngine::Run: arrival_rate_qps is %g; it must be "
                 "positive\n",
                 arrival_rate_qps);
    std::abort();
  }
  // The plan is one sequence: a second one cannot share the kernel with
  // arrivals of the first that have yet to arrive.
  if (next_arrival_ < plan_.size()) {
    std::fprintf(stderr,
                 "PlatformEngine::Run: called before every arrival of the "
                 "previous Run has arrived\n");
    std::abort();
  }
  on_all_done_ = std::move(on_all_done);
  plan_.clear();
  SimTime arrival = context_.simulator->Now();
  if (!sharded_) {
    target_ += num_queries;
    plan_.reserve(num_queries);
    for (uint64_t i = 0; i < num_queries; ++i) {
      arrival += SimTime::FromSeconds(
          rng_.NextExponential(1.0 / arrival_rate_qps));
      size_t type_index = type_sampler_->Sample(rng_);
      plan_.push_back(Arrival{arrival, type_index});
    }
  } else {
    // Sharded mode: every shard walks the full arrival sequence (each gap
    // comes from its query's own stream, so the prefix sums agree across
    // shards) but plans only the queries it owns.
    for (uint64_t i = 0; i < num_queries; ++i) {
      Rng query_rng(DeriveQuerySeed(context_.stream_seed, i));
      arrival += SimTime::FromSeconds(
          query_rng.NextExponential(1.0 / arrival_rate_qps));
      size_t type_index = type_sampler_->Sample(query_rng);
      if (i % context_.shard_count != context_.shard_index) continue;
      ++target_;
      plan_.push_back(Arrival{arrival, type_index, i, query_rng});
    }
  }
  plan_order_ = context_.simulator->ReserveOrders(plan_.size());
  ReleaseArrival(0);
}

void PlatformEngine::ReleaseArrival(size_t index) {
  next_arrival_ = index;
  if (index == plan_.size()) return;
  // Arrivals are in time order, so while plan_[index] waits in the heap
  // every later one would pop after it: the heap's earliest event is the
  // same as if the whole plan were in it.
  context_.simulator->ScheduleAtOrder(
      plan_[index].when, plan_order_ + index, [this, index]() {
        ReleaseArrival(index + 1);
        const Arrival& arrival = plan_[index];
        if (sharded_) {
          StartShardedQuery(arrival.lane, arrival.type_index, arrival.rng);
        } else {
          StartQuery(arrival.type_index);
        }
      });
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
    // group record, and the closure fits Done inline.
    Done done([this, query, group_end]() { RunPhaseGroup(query, group_end); });
    RunPhase(std::move(query), phase_index, std::move(done));
    return;
  }
  RecordPool<PhaseGroup>::Ref group = phase_groups_.Acquire();
  group->query = query;
  group->next_phase = group_end;
  group->outstanding = group_size;
  for (size_t i = phase_index; i < group_end; ++i) {
    RunPhase(query, i, [this, group]() {
      if (--group->outstanding == 0) {
        RunPhaseGroup(group->query, group->next_phase);
      }
    });
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
  RecordPool<IoWave>::Ref wave = io_waves_.Acquire();
  wave->query = std::move(query);
  wave->phase = &phase;
  wave->remaining = phase.num_blocks;
  wave->outstanding = 0;
  wave->done = std::move(done);
  IssueWave(wave);
}

void PlatformEngine::IssueWave(const RecordPool<IoWave>::Ref& wave) {
  // Issue accesses in waves of `parallelism`.
  if (wave->remaining <= 0) {
    Done done = std::move(wave->done);
    done();
    return;
  }
  const IoPhaseSpec& phase = *wave->phase;
  QueryState& query = *wave->query;
  int count = std::min(wave->remaining, phase.parallelism);
  wave->remaining -= count;
  wave->outstanding = count;
  for (int i = 0; i < count; ++i) {
    uint64_t block_id = context_.block_sampler->Sample(DrawStream(query));
    SimTime start = context_.simulator->Now();
    IoRequest request;
    request.shard = context_.shard_index;
    request.lane = query.lane;
    request.seq = query.msg_seq++;
    request.client = query.client;
    request.block_id = block_id;
    request.bytes = phase.block_bytes;
    request.replication = phase.write_replication;
    request.write = phase.write;
    context_.io->Submit(request,
                        [this, wave, start](const storage::IoResult& io) {
                          OnIoDone(wave, start, io);
                        });
  }
}

void PlatformEngine::OnIoDone(const RecordPool<IoWave>::Ref& wave,
                              SimTime start, const storage::IoResult& io) {
  const uint64_t trace_id = wave->query->trace_id;
  const profiling::NameId name =
      wave->phase->write ? dfs_write_span_id_ : dfs_read_span_id_;
  SimTime end = context_.simulator->Now();
  context_.tracer->AddSpan(trace_id, SpanKind::kIo, name, start, end);
  if (io.attempts > 1 || io.hedged) {
    // Annotate wasted work inside the IO span's interval: same-kind
    // overlapping spans union away in attribution, so these are
    // aggregate-neutral markers that ComputeResilienceReport mines.
    // One annotation per extra attempt; the first carries the wasted
    // in-flight time as its extent.
    SimTime anno_start = end - io.wasted_time;
    if (anno_start < start) anno_start = start;
    context_.tracer->AddSpan(
        trace_id, SpanKind::kIo,
        io.hedged ? dfs_hedge_span_id_ : dfs_retry_span_id_, anno_start, end);
    for (uint32_t extra = 2; extra < io.attempts; ++extra) {
      context_.tracer->AddSpan(trace_id, SpanKind::kIo, dfs_retry_span_id_,
                               end, end);
    }
  }
  if (!io.ok()) {
    ++io_failures_;
    context_.tracer->AddSpan(trace_id, SpanKind::kIo, dfs_error_span_id_, end,
                             end);
  }
  if (--wave->outstanding == 0) IssueWave(wave);
}

void PlatformEngine::RunRemotePhase(std::shared_ptr<QueryState> query,
                                    const RemotePhaseSpec& phase,
                                    const RemotePhaseInfo& info, Done done) {
  assert(phase.fanout > 0);
  RecordPool<RemoteOp>::Ref op = remote_ops_.Acquire();
  op->query = query;
  op->start = context_.simulator->Now();
  op->name = info.name_id;
  op->done = std::move(done);
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
    if (op->shuffle) {
      op->shuffle->Reset(params, draw.Fork());
    } else {
      op->shuffle = std::make_unique<ShuffleOperation>(
          context_.simulator, context_.rpc, params, draw.Fork());
    }
    op->shuffle->Run(query->client, [this, op](const ShuffleResult&) {
      FinishRemote(op);
    });
    return;
  }
  if (phase.use_paxos) {
    // Execute a real consensus round: the commit value is this query's
    // mutation id, acceptors are replica peers.
    op->acceptors.clear();
    for (int i = 0; i < phase.fanout; ++i) {
      if (phase.cross_region) {
        op->acceptors.push_back(
            net::NodeId{static_cast<uint32_t>(i % 3),
                        static_cast<uint32_t>(draw.NextBounded(4)),
                        static_cast<uint32_t>(draw.NextBounded(hosts))});
      } else {
        op->acceptors.push_back(
            net::NodeId{0, static_cast<uint32_t>(i % 4),
                        static_cast<uint32_t>(draw.NextBounded(hosts))});
      }
    }
    consensus::PaxosParams params;
    params.acceptor_service_time =
        SimTime::FromSeconds(phase.server_seconds_mean);
    params.private_rpc_draws = sharded_;
    if (op->paxos) {
      op->paxos->Reset(op->acceptors, params, draw.Fork());
    } else {
      op->paxos = std::make_unique<consensus::PaxosGroup>(
          context_.simulator, context_.rpc, op->acceptors, params,
          draw.Fork());
    }
    uint32_t proposer_id =
        static_cast<uint32_t>(draw.NextBounded(1 << 15)) + 1;
    // The commit value is this query's lane. It never reaches an output:
    // message sizes are fixed, and the chosen value is discarded.
    op->paxos->Propose(query->client, proposer_id,
                       "commit-" + std::to_string(query->lane),
                       [this, op](const consensus::ProposeResult&) {
                         FinishRemote(op);
                       });
    return;
  }
  op->outstanding = phase.fanout;
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
                            [this, op](const net::RpcResult&) {
                              if (--op->outstanding == 0) FinishRemote(op);
                            });
  }
}

void PlatformEngine::FinishRemote(const RecordPool<RemoteOp>::Ref& op) {
  context_.tracer->AddSpan(op->query->trace_id, SpanKind::kRemoteWork,
                           op->name, op->start, context_.simulator->Now());
  Done done = std::move(op->done);
  done();
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
