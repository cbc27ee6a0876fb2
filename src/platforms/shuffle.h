#ifndef HYPERPROF_PLATFORMS_SHUFFLE_H_
#define HYPERPROF_PLATFORMS_SHUFFLE_H_

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace hyperprof::platforms {

/**
 * Simulated worker hosts per cluster: query clients, fan-out peers, Paxos
 * acceptors, shuffle mappers and reducers are all drawn from this many.
 */
inline constexpr uint32_t kWorkerHosts = 64;

/**
 * Distributed shuffle — the remote-work engine of the paper's BigQuery
 * architecture (Figure 1c): every map worker partitions its output by
 * key hash and streams each partition to its reducer; a reducer finishes
 * when all of its input streams have arrived and its merge completes.
 *
 * The operation runs on the simulated RPC fabric: M x R streams with
 * real per-stream byte volumes, per-reducer serialization of stream
 * ingestion, and a final merge proportional to received bytes. The
 * initiating stage observes the *makespan* (slowest reducer), which is
 * what the paper's shuffle remote-work time measures.
 */
struct ShuffleParams {
  int num_mappers = 8;
  int num_reducers = 8;
  // Total bytes emitted per mapper, split over reducers with hash skew.
  uint64_t bytes_per_mapper = 8 << 20;
  // Skew of the partition-key distribution: 0 = perfectly even split,
  // larger values concentrate bytes on few reducers (hot keys).
  double partition_zipf_s = 0.3;
  // Reducer ingest rate (decompress + append) and merge rate.
  double ingest_bytes_per_second = 2.0e9;
  double merge_bytes_per_second = 4.0e9;
  // Mapper-side partitioning/serialization rate.
  double partition_bytes_per_second = 4.0e9;
  // Route the per-stream RPC network/fault draws through this operation's
  // private rng rather than the RpcSystem's stream. Shard engines set
  // this so co-resident queries cannot perturb each other's draws.
  bool private_rpc_draws = false;
};

/** Outcome handed to the completion callback. */
struct ShuffleResult {
  SimTime makespan;                // start -> slowest reducer completion
  uint64_t total_bytes = 0;        // bytes moved across the fabric
  uint64_t max_reducer_bytes = 0;  // hottest reducer's input
  int num_reducers = 0;

  /** Hottest reducer's bytes relative to a perfectly even share. */
  double SkewFactor() const;
};

/**
 * Runs one shuffle between worker nodes. Mappers live on the caller's
 * cluster; reducers are spread over the region's clusters. The run's
 * state lives in the operation, so a finished operation can be Reset and
 * run again without allocating.
 */
class ShuffleOperation {
 public:
  using Callback = InlineFunction<void(const ShuffleResult&)>;

  ShuffleOperation(sim::Simulator* simulator, net::RpcSystem* rpc,
                   ShuffleParams params, Rng rng);

  ShuffleOperation(const ShuffleOperation&) = delete;
  ShuffleOperation& operator=(const ShuffleOperation&) = delete;

  /**
   * Starts the shuffle; `on_done` fires when every reducer has ingested
   * all of its streams and merged. The object must stay alive until the
   * callback fires, and runs one shuffle at a time.
   */
  void Run(const net::NodeId& coordinator, Callback on_done);

  /**
   * Re-arms a finished operation with new parameters and stream, as if
   * newly constructed, keeping its storage.
   */
  void Reset(ShuffleParams params, Rng rng);

 private:
  /** One mapper-to-reducer stream. */
  struct Stream {
    net::NodeId mapper;
    int reducer = 0;
    uint64_t bytes = 0;
  };

  /** Splits one mapper's bytes over reducers into `split_`. */
  void PartitionBytes();
  void SendStream(size_t index);
  void OnStreamLanded(int reducer);

  sim::Simulator* simulator_;
  net::RpcSystem* rpc_;
  ShuffleParams params_;
  Rng rng_;
  // The run in flight.
  SimTime started_;
  uint64_t total_bytes_ = 0;
  std::vector<net::NodeId> reducers_;
  std::vector<uint64_t> reducer_bytes_;
  std::vector<SimTime> reducer_ready_;  // when the last stream lands
  std::vector<Stream> streams_;
  size_t streams_remaining_ = 0;
  Callback on_done_;
  // PartitionBytes scratch.
  std::vector<double> weights_;
  std::vector<uint64_t> split_;
};

}  // namespace hyperprof::platforms

#endif  // HYPERPROF_PLATFORMS_SHUFFLE_H_
