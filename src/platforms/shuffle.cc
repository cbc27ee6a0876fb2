#include "platforms/shuffle.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"
#include "sim/barrier.h"

namespace hyperprof::platforms {

double ShuffleResult::SkewFactor() const {
  if (total_bytes == 0 || num_reducers <= 0) return 1.0;
  double even_share =
      static_cast<double>(total_bytes) / static_cast<double>(num_reducers);
  return static_cast<double>(max_reducer_bytes) / even_share;
}

ShuffleOperation::ShuffleOperation(sim::Simulator* simulator,
                                   net::RpcSystem* rpc, ShuffleParams params,
                                   Rng rng)
    : simulator_(simulator),
      rpc_(rpc),
      params_(params),
      rng_(std::move(rng)) {
  assert(params_.num_mappers > 0 && params_.num_reducers > 0);
}

std::vector<uint64_t> ShuffleOperation::PartitionBytes() {
  // Zipf-weighted split of the mapper's output across reducers, with the
  // hot reducer chosen per mapper (hash randomization), plus multiplicative
  // noise per partition.
  std::vector<double> weights(params_.num_reducers);
  size_t hot = rng_.NextBounded(params_.num_reducers);
  for (size_t r = 0; r < weights.size(); ++r) {
    size_t rank = (r + weights.size() - hot) % weights.size() + 1;
    weights[r] = std::pow(static_cast<double>(rank),
                          -params_.partition_zipf_s) *
                 rng_.NextLogNormal(0.0, 0.1);
  }
  double total = 0;
  for (double w : weights) total += w;
  std::vector<uint64_t> bytes(weights.size());
  for (size_t r = 0; r < weights.size(); ++r) {
    bytes[r] = static_cast<uint64_t>(
        static_cast<double>(params_.bytes_per_mapper) * weights[r] / total);
  }
  return bytes;
}

void ShuffleOperation::Run(const net::NodeId& coordinator,
                           Callback on_done) {
  struct State {
    SimTime started;
    uint64_t total_bytes = 0;
    std::vector<uint64_t> reducer_bytes;
    std::vector<SimTime> reducer_ready;  // when the last stream lands
    size_t streams_remaining = 0;
    Callback on_done;
    int num_reducers = 0;
  };
  auto state = std::make_shared<State>();
  state->started = simulator_->Now();
  state->reducer_bytes.assign(params_.num_reducers, 0);
  state->reducer_ready.assign(params_.num_reducers, simulator_->Now());
  state->streams_remaining =
      static_cast<size_t>(params_.num_mappers) *
      static_cast<size_t>(params_.num_reducers);
  state->on_done = std::move(on_done);
  state->num_reducers = params_.num_reducers;

  // Reducer placement: spread over the region's clusters.
  std::vector<net::NodeId> reducers;
  for (int r = 0; r < params_.num_reducers; ++r) {
    reducers.push_back(net::NodeId{
        coordinator.region, static_cast<uint32_t>(r % 4),
        static_cast<uint32_t>(rng_.NextBounded(params_.worker_hosts))});
  }

  auto maybe_finish = [this, state]() {
    if (state->streams_remaining > 0) return;
    // All streams landed; each reducer merges its input, the makespan is
    // the slowest (ready time + merge time).
    SimTime slowest;
    for (int r = 0; r < state->num_reducers; ++r) {
      SimTime merge = SimTime::FromSeconds(
          static_cast<double>(state->reducer_bytes[r]) /
          params_.merge_bytes_per_second);
      SimTime done_at = state->reducer_ready[r] + merge;
      slowest = std::max(slowest, done_at);
    }
    SimTime wait = slowest - simulator_->Now();
    if (wait < SimTime::Zero()) wait = SimTime::Zero();
    simulator_->Schedule(wait, [this, state]() {
      ShuffleResult result;
      result.makespan = simulator_->Now() - state->started;
      result.total_bytes = state->total_bytes;
      result.max_reducer_bytes = *std::max_element(
          state->reducer_bytes.begin(), state->reducer_bytes.end());
      result.num_reducers = state->num_reducers;
      state->on_done(result);
    });
  };

  for (int m = 0; m < params_.num_mappers; ++m) {
    net::NodeId mapper{coordinator.region, coordinator.cluster,
                       static_cast<uint32_t>(
                           rng_.NextBounded(params_.worker_hosts))};
    std::vector<uint64_t> split = PartitionBytes();
    // Mapper-side partition/serialize time before streams depart.
    SimTime partition_time = SimTime::FromSeconds(
        static_cast<double>(params_.bytes_per_mapper) /
        params_.partition_bytes_per_second);
    for (int r = 0; r < params_.num_reducers; ++r) {
      uint64_t bytes = split[static_cast<size_t>(r)];
      state->total_bytes += bytes;
      state->reducer_bytes[static_cast<size_t>(r)] += bytes;
      net::RpcOptions options;
      // One fixed method name for all streams: the per-(mapper, reducer)
      // suffix was never read, and formatting it allocated on every RPC.
      options.method = "shuffle.Stream";
      options.request_bytes = bytes;
      options.response_bytes = 64;  // ack
      if (params_.private_rpc_draws) options.rng = &rng_;
      SimTime ingest = SimTime::FromSeconds(
          static_cast<double>(bytes) / params_.ingest_bytes_per_second);
      auto send = [this, state, mapper, reducer = reducers[r], options,
                   ingest, r, maybe_finish]() {
        rpc_->CallFixed(
            mapper, reducer, options, ingest,
            [this, state, r, maybe_finish](const net::RpcResult&) {
              state->reducer_ready[static_cast<size_t>(r)] = std::max(
                  state->reducer_ready[static_cast<size_t>(r)],
                  simulator_->Now());
              --state->streams_remaining;
              maybe_finish();
            });
      };
      simulator_->Schedule(partition_time, send);
    }
  }
}

}  // namespace hyperprof::platforms
