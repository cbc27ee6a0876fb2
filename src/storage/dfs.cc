#include "storage/dfs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace hyperprof::storage {

namespace {

uint64_t MixBlockId(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

DistributedFileSystem::DistributedFileSystem(sim::Simulator* sim,
                                             net::RpcSystem* rpc,
                                             DfsParams params, Rng rng)
    : sim_(sim), rpc_(rpc), params_(params), rng_(std::move(rng)) {
  // Checked in every build type: HomeServer, and so every IO and every
  // warm-set test, takes ids modulo this count.
  if (params_.num_fileservers == 0) {
    std::fprintf(stderr,
                 "DistributedFileSystem: num_fileservers is 0; it must be "
                 "at least 1\n");
    std::abort();
  }
  stores_.reserve(params_.num_fileservers);
  for (uint32_t i = 0; i < params_.num_fileservers; ++i) {
    stores_.push_back(std::make_unique<TieredStore>(params_.store));
  }
}

uint32_t DistributedFileSystem::HomeServer(uint64_t block_id) const {
  return static_cast<uint32_t>(MixBlockId(block_id) %
                               params_.num_fileservers);
}

net::NodeId DistributedFileSystem::ServerNode(uint32_t index) const {
  // Fileservers live in the local region, cluster 100+, one per host.
  return net::NodeId{0, 100, index};
}

void DistributedFileSystem::PrewarmZipf(uint64_t ram_blocks,
                                        uint64_t ssd_blocks,
                                        uint64_t block_bytes) {
  // Each cache holds its store's share of a range, in ascending id order;
  // one pass counts the shares and the caches keep them as warm tails.
  const uint64_t ram_limit = std::min(ram_blocks, ssd_blocks);
  std::vector<uint64_t> ram_count(params_.num_fileservers, 0);
  std::vector<uint64_t> ssd_count(params_.num_fileservers, 0);
  for (uint64_t id = 0; id < ssd_blocks; ++id) {
    const uint32_t home = HomeServer(id);
    ++ssd_count[home];
    if (id < ram_limit) ++ram_count[home];
  }
  for (uint32_t s = 0; s < params_.num_fileservers; ++s) {
    // The caches live in stores_, and this DFS cannot move, so the
    // captured `this` outlives every call.
    const auto member = [this, s](uint64_t id) { return HomeServer(id) == s; };
    stores_[s]->PrewarmRange(Tier::kSsd, ssd_blocks, ssd_count[s],
                             block_bytes, member);
    stores_[s]->PrewarmRange(Tier::kRam, ram_limit, ram_count[s], block_bytes,
                             member);
  }
}

size_t DistributedFileSystem::memory_bytes() const {
  size_t bytes = 0;
  for (const auto& store : stores_) bytes += store->memory_bytes();
  return bytes;
}

void DistributedFileSystem::Read(const net::NodeId& client, uint64_t block_id,
                                 uint64_t bytes, ReadCallback on_done) {
  uint32_t server_index = HomeServer(block_id);
  RecordPool<ReadOp>::Ref op = reads_.Acquire();
  op->result = IoResult();
  op->start = sim_->Now();
  op->store = stores_[server_index].get();
  op->block_id = block_id;
  op->bytes = bytes;
  op->on_done = std::move(on_done);

  net::RpcOptions options;
  options.method = "dfs.Read";
  options.request_bytes = 128;  // block handle + offsets
  options.response_bytes = bytes;

  // The handler runs once per wire attempt: a retried or hedged read does
  // the media access again at the (same) home server, so device counters
  // see the real amplification caused by the fault.
  rpc_->CallWithPolicy(
      client, ServerNode(server_index), options, params_.read_policy,
      [this, op](net::RpcSystem::Responder respond) {
        AccessResult access = op->store->Read(op->block_id, op->bytes, rng_);
        op->result.served_by = access.served_by;
        op->result.device_time = access.device_time;
        sim_->Schedule(access.device_time + params_.server_cpu_per_request,
                       std::move(respond));
      },
      [this, op](const net::RpcOutcome& outcome) {
        IoResult& result = op->result;
        result.status = outcome.status;
        result.total_time = sim_->Now() - op->start;
        result.network_time = outcome.result.network_time;
        result.attempts = outcome.attempts;
        result.hedged = outcome.hedged;
        result.wasted_time = outcome.wasted_time;
        if (!outcome.ok()) ++failed_reads_;
        ReadCallback done = std::move(op->on_done);
        done(result);
      });
}

void DistributedFileSystem::Write(const net::NodeId& client,
                                  uint64_t block_id, uint64_t bytes,
                                  uint32_t replication,
                                  ReadCallback on_done) {
  Write(client, block_id, bytes, replication, /*quorum_acks=*/0,
        std::move(on_done));
}

void DistributedFileSystem::Write(const net::NodeId& client,
                                  uint64_t block_id, uint64_t bytes,
                                  uint32_t replication, uint32_t quorum_acks,
                                  ReadCallback on_done) {
  if (replication == 0) {
    // Reject rather than assert: the assert compiled out in release builds
    // and a zero-count barrier would have completed the caller before the
    // "write" did anything. Completion is asynchronous like every other
    // path so callers cannot observe a same-stack callback.
    ++invalid_writes_;
    sim_->Schedule(SimTime::Zero(),
                   [on_done = std::move(on_done)]() mutable {
                     IoResult result;
                     result.status = Status::InvalidArgument(
                         "dfs.Write requires replication >= 1");
                     result.served_by = Tier::kSsd;
                     on_done(result);
                   });
    return;
  }
  replication = std::min(replication, params_.num_fileservers);
  uint32_t quorum = quorum_acks == 0
                        ? replication
                        : std::min(quorum_acks, replication);
  uint32_t first = HomeServer(block_id);

  RecordPool<WriteOp>::Ref op = writes_.Acquire();
  op->result = IoResult();
  op->result.served_by = Tier::kSsd;  // durable log append tier
  op->start = sim_->Now();
  op->block_id = block_id;
  op->bytes = bytes;
  op->replication = replication;
  op->quorum = quorum;
  op->acks = 0;
  op->failures = 0;
  op->extra_attempts = 0;
  op->completed = false;
  op->on_done = std::move(on_done);

  for (uint32_t r = 0; r < replication; ++r) {
    uint32_t server_index = (first + r) % params_.num_fileservers;
    TieredStore* store = stores_[server_index].get();
    net::RpcOptions options;
    options.method = "dfs.Write";
    options.request_bytes = bytes;
    options.response_bytes = 64;  // ack
    rpc_->CallWithPolicy(
        client, ServerNode(server_index), options, params_.write_policy,
        [this, store, op](net::RpcSystem::Responder respond) {
          AccessResult access = store->Write(op->block_id, op->bytes, rng_);
          // Record the slowest replica's media time.
          if (access.device_time > op->result.device_time) {
            op->result.device_time = access.device_time;
          }
          sim_->Schedule(access.device_time + params_.server_cpu_per_request,
                         std::move(respond));
        },
        [this, op](const net::RpcOutcome& outcome) {
          WriteOp& state = *op;
          state.extra_attempts += outcome.attempts - 1;
          if (outcome.hedged) state.result.hedged = true;
          state.result.wasted_time += outcome.wasted_time;
          if (outcome.ok()) {
            ++state.acks;
            if (outcome.result.network_time > state.result.network_time) {
              state.result.network_time = outcome.result.network_time;
            }
            if (state.completed) {
              // Straggler replica finishing after the quorum released the
              // caller — the background tail of a quorum-append log.
              ++background_acks_;
              return;
            }
            if (state.acks >= state.quorum) {
              state.completed = true;
              state.result.status = Status::Ok();
              state.result.acks = state.acks;
              state.result.attempts = 1 + state.extra_attempts;
              state.result.total_time = sim_->Now() - state.start;
              state.on_done(state.result);
            }
            return;
          }
          ++state.failures;
          if (state.completed) return;
          // Quorum unreachable: more replicas are dead than the write can
          // tolerate. Fail now instead of waiting for the rest.
          if (state.failures > state.replication - state.quorum) {
            state.completed = true;
            ++failed_writes_;
            state.result.status = Status::Unavailable(
                "dfs.Write quorum unreachable: " + outcome.status.message());
            state.result.acks = state.acks;
            state.result.attempts = 1 + state.extra_attempts;
            state.result.total_time = sim_->Now() - state.start;
            state.on_done(state.result);
          }
        });
  }
}

double DistributedFileSystem::TierServeFraction(Tier tier) const {
  // Sum the stores' exact per-tier counters. The previous implementation
  // re-derived each store's count as round(fraction * reads + 0.5), which
  // re-quantizes through a double and drifts once counters exceed 2^51 —
  // see the regression constants in tests/storage/dfs_test.cc.
  uint64_t total = 0;
  uint64_t tier_count = 0;
  for (const auto& store : stores_) {
    total += store->reads();
    tier_count += store->tier_reads(tier);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(tier_count) /
                          static_cast<double>(total);
}

}  // namespace hyperprof::storage
