#include "platforms/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hyperprof::platforms {

using profiling::BroadOf;
using profiling::FnCategory;
using profiling::SpanKind;

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
      sharded_(context.shard_count > 0),
      block_sampler_(spec_.block_space, spec_.block_zipf_s) {
  assert(!sharded_ || spec_.worker_cores == 0);
  assert(context_.simulator && context_.io && context_.rpc &&
         context_.tracer && context_.profiler && context_.registry);
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
    std::vector<std::string> pool =
        context_.registry->SymbolsFor(static_cast<FnCategory>(i));
    if (pool.empty()) {
      // Deliberately unknown symbol: exercises the Uncategorized path.
      pool.push_back(spec_.name + "::internal::unknown_leaf");
    }
    for (const std::string& symbol : pool) {
      symbols_[i].push_back(context_.profiler->InternSymbol(symbol));
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

void PlatformEngine::Run(uint64_t num_queries, double arrival_rate_qps) {
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
  plan_.clear();
  // Query i is lane i. A sharded engine walks the full arrival sequence,
  // drawing each gap from its query's own stream so the prefix sums agree
  // across shards, and plans only the queries it owns; a fused engine
  // draws from its own stream and owns every query.
  const uint64_t stride = std::max<uint32_t>(context_.shard_count, 1);
  SimTime arrival = context_.simulator->Now();
  for (uint64_t i = 0; i < num_queries; ++i) {
    Arrival next{SimTime(), 0, i,
                 Rng(DeriveQuerySeed(context_.stream_seed, i))};
    Rng& draw = sharded_ ? next.rng : rng_;
    arrival += SimTime::FromSeconds(
        draw.NextExponential(1.0 / arrival_rate_qps));
    next.when = arrival;
    next.type_index = type_sampler_->Sample(draw);
    if (i % stride == context_.shard_index) plan_.push_back(next);
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
        Launch(plan_[index], /*has_ticket=*/false, 0);
      });
}

void PlatformEngine::SetServingSink(ServingSink sink, void* ctx) {
  serving_sink_ = sink;
  serving_ctx_ = ctx;
}

void PlatformEngine::Submit(uint64_t ticket) {
  // Checked in every build: a sharded engine owns a fixed partition of its
  // Run's query indices, and a ticket with no sink would finish unheard.
  if (sharded_) {
    std::fprintf(stderr,
                 "PlatformEngine::Submit: serving admission requires a "
                 "fused engine\n");
    std::abort();
  }
  if (serving_sink_ == nullptr) {
    std::fprintf(stderr,
                 "PlatformEngine::Submit: called before SetServingSink\n");
    std::abort();
  }
  const size_t type_index = type_sampler_->Sample(rng_);
  Launch(Arrival{context_.simulator->Now(), type_index, submitted_++},
         /*has_ticket=*/true, ticket);
}

void PlatformEngine::Launch(const Arrival& arrival, bool has_ticket,
                            uint64_t ticket) {
  // A recycled record keeps its last query's fields: set every one.
  QueryRef query = queries_.Acquire();
  query->type_index = arrival.type_index;
  query->lane = arrival.lane;
  query->msg_seq = 0;
  query->rng = arrival.rng;
  query->admitted = context_.simulator->Now();
  query->ticket = ticket;
  query->has_ticket = has_ticket;
  Rng& draw = DrawStream(*query);
  // Queries originate on worker hosts spread over four clusters.
  query->client = net::NodeId{
      0, static_cast<uint32_t>(draw.NextBounded(4)),
      static_cast<uint32_t>(draw.NextBounded(kWorkerHosts))};
  const profiling::NameId type_name = type_name_ids_[arrival.type_index];
  if (sharded_) {
    // The sampling decision comes from the query stream (not the tracer's)
    // and the trace id is the global query index, so the sampled set and
    // the ids are shard-layout-invariant.
    const uint32_t one_in = context_.tracer->sample_one_in();
    const bool sampled = one_in <= 1 || draw.NextBounded(one_in) == 0;
    query->trace_id = context_.tracer->StartQueryForced(
        platform_id_, type_name, query->admitted, sampled, arrival.lane + 1);
  } else {
    query->trace_id = context_.tracer->StartQuery(platform_id_, type_name,
                                                  query->admitted);
  }
  RunPhaseGroup(std::move(query), 0);
}

void PlatformEngine::RunPhaseGroup(QueryRef query, size_t phase_index) {
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

void PlatformEngine::RunPhase(QueryRef query, size_t phase_index,
                              Done done) {
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

void PlatformEngine::RunComputePhase(QueryRef query,
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
    profiling::NameId symbol = pool[draw.NextBounded(pool.size())];
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
    // only the on-core time (queueing is unattributed wait).
    worker_pool_->Acquire(
        [this, query, span_length, done = std::move(done)]() mutable {
          SimTime start = context_.simulator->Now();
          context_.tracer->AddSpan(query->trace_id, SpanKind::kCpu,
                                   compute_span_id_, start,
                                   start + span_length);
          context_.simulator->Schedule(
              span_length, [this, done = std::move(done)]() mutable {
                worker_pool_->Release();
                done();
              });
        });
    return;
  }
  SimTime start = context_.simulator->Now();
  context_.tracer->AddSpan(query->trace_id, SpanKind::kCpu, compute_span_id_,
                           start, start + span_length);
  context_.simulator->Schedule(span_length, std::move(done));
}

void PlatformEngine::RunIoPhase(QueryRef query, const IoPhaseSpec& phase,
                                Done done) {
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
    uint64_t block_id = block_sampler_.Sample(DrawStream(query));
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

void PlatformEngine::RunRemotePhase(QueryRef query,
                                    const RemotePhaseSpec& phase,
                                    const RemotePhaseInfo& info, Done done) {
  assert(phase.fanout > 0);
  RecordPool<RemoteOp>::Ref op = remote_ops_.Acquire();
  op->query = query;
  op->start = context_.simulator->Now();
  op->name = info.name_id;
  op->done = std::move(done);
  Rng& draw = DrawStream(*query);
  if (phase.use_shuffle) {
    // Execute a real distributed shuffle: fanout mappers stream to
    // fanout reducers; the span covers the shuffle makespan.
    ShuffleParams params;
    params.num_mappers = phase.fanout;
    params.num_reducers = phase.fanout;
    params.bytes_per_mapper = phase.request_bytes;
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
                        static_cast<uint32_t>(draw.NextBounded(kWorkerHosts))});
      } else {
        op->acceptors.push_back(
            net::NodeId{0, static_cast<uint32_t>(i % 4),
                        static_cast<uint32_t>(draw.NextBounded(kWorkerHosts))});
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
    // message sizes are fixed, and the chosen value is discarded. Its
    // digits alone fit std::string's inline buffer below 10^15 lanes, so
    // a long-lived serving engine's proposals stay allocation-free.
    op->paxos->Propose(query->client, proposer_id,
                       std::to_string(query->lane),
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
                         static_cast<uint32_t>(draw.NextBounded(kWorkerHosts))};
    } else {
      peer = net::NodeId{0, static_cast<uint32_t>(draw.NextBounded(4)),
                         static_cast<uint32_t>(draw.NextBounded(kWorkerHosts))};
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

void PlatformEngine::FinishQuery(const QueryRef& query) {
  context_.tracer->FinishQuery(query->trace_id, context_.simulator->Now());
  ++completed_;
  if (query->has_ticket) {
    serving_sink_(serving_ctx_, query->ticket,
                  context_.simulator->Now() - query->admitted);
  }
}

}  // namespace hyperprof::platforms
