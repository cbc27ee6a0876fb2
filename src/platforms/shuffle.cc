#include "platforms/shuffle.h"

#include <algorithm>
#include <cassert>
#include <cmath>

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
    : simulator_(simulator), rpc_(rpc) {
  Reset(params, std::move(rng));
}

void ShuffleOperation::Reset(ShuffleParams params, Rng rng) {
  assert(params.num_mappers > 0 && params.num_reducers > 0);
  params_ = params;
  rng_ = std::move(rng);
}

void ShuffleOperation::PartitionBytes() {
  // Zipf-weighted split of the mapper's output across reducers, with the
  // hot reducer chosen per mapper (hash randomization), plus multiplicative
  // noise per partition.
  weights_.resize(static_cast<size_t>(params_.num_reducers));
  size_t hot = rng_.NextBounded(params_.num_reducers);
  for (size_t r = 0; r < weights_.size(); ++r) {
    size_t rank = (r + weights_.size() - hot) % weights_.size() + 1;
    weights_[r] = std::pow(static_cast<double>(rank),
                           -params_.partition_zipf_s) *
                  rng_.NextLogNormal(0.0, 0.1);
  }
  double total = 0;
  for (double w : weights_) total += w;
  split_.resize(weights_.size());
  for (size_t r = 0; r < weights_.size(); ++r) {
    split_[r] = static_cast<uint64_t>(
        static_cast<double>(params_.bytes_per_mapper) * weights_[r] / total);
  }
}

void ShuffleOperation::Run(const net::NodeId& coordinator,
                           Callback on_done) {
  const size_t reducers = static_cast<size_t>(params_.num_reducers);
  started_ = simulator_->Now();
  total_bytes_ = 0;
  reducer_bytes_.assign(reducers, 0);
  reducer_ready_.assign(reducers, simulator_->Now());
  streams_.clear();
  streams_remaining_ = static_cast<size_t>(params_.num_mappers) * reducers;
  on_done_ = std::move(on_done);

  // Reducer placement: spread over the region's clusters.
  reducers_.clear();
  for (size_t r = 0; r < reducers; ++r) {
    reducers_.push_back(net::NodeId{
        coordinator.region, static_cast<uint32_t>(r % 4),
        static_cast<uint32_t>(rng_.NextBounded(kWorkerHosts))});
  }

  for (int m = 0; m < params_.num_mappers; ++m) {
    net::NodeId mapper{coordinator.region, coordinator.cluster,
                       static_cast<uint32_t>(
                           rng_.NextBounded(kWorkerHosts))};
    PartitionBytes();
    // Mapper-side partition/serialize time before streams depart.
    SimTime partition_time = SimTime::FromSeconds(
        static_cast<double>(params_.bytes_per_mapper) /
        params_.partition_bytes_per_second);
    for (size_t r = 0; r < reducers; ++r) {
      uint64_t bytes = split_[r];
      total_bytes_ += bytes;
      reducer_bytes_[r] += bytes;
      const size_t index = streams_.size();
      streams_.push_back(Stream{mapper, static_cast<int>(r), bytes});
      simulator_->Schedule(partition_time,
                           [this, index]() { SendStream(index); });
    }
  }
}

void ShuffleOperation::SendStream(size_t index) {
  const Stream& stream = streams_[index];
  net::RpcOptions options;
  // One fixed method name for all streams: the per-(mapper, reducer)
  // suffix was never read, and formatting it allocated on every RPC.
  options.method = "shuffle.Stream";
  options.request_bytes = stream.bytes;
  options.response_bytes = 64;  // ack
  if (params_.private_rpc_draws) options.rng = &rng_;
  SimTime ingest = SimTime::FromSeconds(static_cast<double>(stream.bytes) /
                                        params_.ingest_bytes_per_second);
  const int reducer = stream.reducer;
  rpc_->CallFixed(stream.mapper, reducers_[static_cast<size_t>(reducer)],
                  options, ingest, [this, reducer](const net::RpcResult&) {
                    OnStreamLanded(reducer);
                  });
}

void ShuffleOperation::OnStreamLanded(int reducer) {
  SimTime& ready = reducer_ready_[static_cast<size_t>(reducer)];
  ready = std::max(ready, simulator_->Now());
  if (--streams_remaining_ > 0) return;
  // All streams landed; each reducer merges its input, the makespan is
  // the slowest (ready time + merge time).
  SimTime slowest;
  for (size_t r = 0; r < reducer_bytes_.size(); ++r) {
    SimTime merge = SimTime::FromSeconds(
        static_cast<double>(reducer_bytes_[r]) /
        params_.merge_bytes_per_second);
    slowest = std::max(slowest, reducer_ready_[r] + merge);
  }
  SimTime wait = slowest - simulator_->Now();
  if (wait < SimTime::Zero()) wait = SimTime::Zero();
  simulator_->Schedule(wait, [this]() {
    ShuffleResult result;
    result.makespan = simulator_->Now() - started_;
    result.total_bytes = total_bytes_;
    result.max_reducer_bytes =
        *std::max_element(reducer_bytes_.begin(), reducer_bytes_.end());
    result.num_reducers = params_.num_reducers;
    // Moved out first: the callback may own this operation.
    Callback done = std::move(on_done_);
    done(result);
  });
}

}  // namespace hyperprof::platforms
