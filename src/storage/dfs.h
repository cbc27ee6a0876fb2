#ifndef HYPERPROF_STORAGE_DFS_H_
#define HYPERPROF_STORAGE_DFS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/record_pool.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "storage/tiered_store.h"

namespace hyperprof::storage {

/** Outcome of a distributed read or write. */
struct IoResult {
  Status status;         // kOk, or why the IO ultimately failed
  Tier served_by = Tier::kRam;
  SimTime total_time;    // client-observed end-to-end time
  SimTime device_time;   // media time at the serving fileserver(s)
  SimTime network_time;  // transport portion
  uint32_t attempts = 1; // wire attempts; > expected means retries/hedges
  uint32_t acks = 0;     // replica acks at completion time (writes only)
  bool hedged = false;   // a hedged attempt was issued for this IO
  SimTime wasted_time;   // in-flight time of failed/abandoned attempts

  bool ok() const { return status.ok(); }
};

/** Configuration of the distributed filesystem layer. */
struct DfsParams {
  uint32_t num_fileservers = 16;
  TieredStoreParams store;
  // Fileserver CPU cost per request (metadata lookup, checksum) in addition
  // to media time; this is the "IO backend client compute" the paper's
  // system-tax table calls File Systems.
  SimTime server_cpu_per_request = SimTime::Micros(15);
  // Client-side resilience applied to every read / per-replica write RPC.
  // The defaults are Plain() — no timers, no extra draws — which keeps
  // fault-free runs bit-identical to the pre-resilience implementation.
  net::RpcCallPolicy read_policy;
  net::RpcCallPolicy write_policy;
};

/**
 * Colossus-like distributed filesystem model: data blocks are spread across
 * fileserver nodes (each a TieredStore) and accessed over the RPC fabric.
 *
 * Reads hash to one fileserver; replicated writes fan out to `replication`
 * servers and complete once `quorum_acks` replicas acknowledge (0 = wait
 * for the full set, the conservative default). Straggler replicas keep
 * writing in the background after the quorum completes the caller, as in
 * production quorum-append logs.
 *
 * Failures injected by the RPC fabric's FaultModel surface on
 * IoResult::status after the per-IO RpcCallPolicy (timeout / retry /
 * hedge) is exhausted.
 */
class DistributedFileSystem {
 public:
  using ReadCallback = InlineFunction<void(const IoResult&)>;

  DistributedFileSystem(sim::Simulator* sim, net::RpcSystem* rpc,
                        DfsParams params, Rng rng);

  DistributedFileSystem(const DistributedFileSystem&) = delete;
  DistributedFileSystem& operator=(const DistributedFileSystem&) = delete;

  /** Reads a block from its home fileserver. */
  void Read(const net::NodeId& client, uint64_t block_id, uint64_t bytes,
            ReadCallback on_done);

  /**
   * Durably writes a block to `replication` fileservers, completing the
   * caller after all replicas acknowledge. `replication == 0` is an error:
   * the callback fires (asynchronously, like every other completion) with
   * Status::InvalidArgument.
   */
  void Write(const net::NodeId& client, uint64_t block_id, uint64_t bytes,
             uint32_t replication, ReadCallback on_done);

  /**
   * Quorum write: completes the caller once `quorum_acks` of `replication`
   * replicas acknowledge (0 = all). Remaining replicas finish in the
   * background; their acks are counted in background_acks(). The write
   * fails with kUnavailable as soon as more than replication - quorum
   * replicas have failed (the quorum can no longer be reached).
   */
  void Write(const net::NodeId& client, uint64_t block_id, uint64_t bytes,
             uint32_t replication, uint32_t quorum_acks,
             ReadCallback on_done);

  /** The fileserver that owns a block (for tests). */
  uint32_t HomeServer(uint64_t block_id) const;

  /**
   * Warms the caches with the hottest blocks of a Zipf-ranked block space
   * (block id == popularity rank): ids [0, min(ram_blocks, ssd_blocks)) go
   * to RAM and SSD, the rest of [0, ssd_blocks) to SSD only, each to its
   * HomeServer's store, in ascending id order. Models the steady state a
   * production fleet runs in rather than an all-cold start. The caches
   * keep these blocks as implicit warm tails (LruCache::Prewarm), so set-up
   * builds no index entry for them. Aborts if any cache already holds
   * entries (a second call, or a call after traffic).
   */
  void PrewarmZipf(uint64_t ram_blocks, uint64_t ssd_blocks,
                   uint64_t block_bytes);

  /** Bytes reserved by every fileserver's cache indexes. */
  size_t memory_bytes() const;

  const TieredStore& server_store(uint32_t index) const {
    return *stores_[index];
  }
  uint32_t num_fileservers() const { return params_.num_fileservers; }

  /** Aggregate fraction of reads served by each tier across all servers. */
  double TierServeFraction(Tier tier) const;

  /** Writes rejected for replication == 0. */
  uint64_t invalid_writes() const { return invalid_writes_; }
  /** Reads that exhausted their policy and completed with an error. */
  uint64_t failed_reads() const { return failed_reads_; }
  /** Writes that could no longer reach their quorum. */
  uint64_t failed_writes() const { return failed_writes_; }
  /** Straggler replica acks that arrived after quorum completion. */
  uint64_t background_acks() const { return background_acks_; }

 private:
  /** One read: its result and caller, shared by handler and completion. */
  struct ReadOp {
    IoResult result;
    SimTime start;
    TieredStore* store = nullptr;
    uint64_t block_id = 0;
    uint64_t bytes = 0;
    ReadCallback on_done;

    void Recycle() { on_done = nullptr; }
  };

  /**
   * Shared progress of one replicated write. Kept alive by the per-replica
   * completions so stragglers can keep counting after the quorum has
   * already completed the caller.
   */
  struct WriteOp {
    IoResult result;
    SimTime start;
    uint64_t block_id = 0;
    uint64_t bytes = 0;
    uint32_t replication = 0;
    uint32_t quorum = 0;
    uint32_t acks = 0;
    uint32_t failures = 0;
    uint32_t extra_attempts = 0;  // retries + hedges summed over replicas
    bool completed = false;
    ReadCallback on_done;

    void Recycle() { on_done = nullptr; }
  };

  net::NodeId ServerNode(uint32_t index) const;

  sim::Simulator* sim_;
  net::RpcSystem* rpc_;
  DfsParams params_;
  Rng rng_;
  std::vector<std::unique_ptr<TieredStore>> stores_;
  uint64_t invalid_writes_ = 0;
  uint64_t failed_reads_ = 0;
  uint64_t failed_writes_ = 0;
  uint64_t background_acks_ = 0;
  RecordPool<ReadOp> reads_;
  RecordPool<WriteOp> writes_;
};

}  // namespace hyperprof::storage

#endif  // HYPERPROF_STORAGE_DFS_H_
