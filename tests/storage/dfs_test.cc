#include "storage/dfs.h"

#include <vector>

#include <gtest/gtest.h>

#include "net/fault.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hyperprof::storage {
namespace {

class DfsTest : public ::testing::Test {
 protected:
  DfsTest() : rpc_(&simulator_, &network_, Rng(2)) {}

  DfsParams SmallParams() {
    DfsParams params;
    params.num_fileservers = 4;
    params.store.ram_bytes = 1 << 20;
    params.store.ssd_bytes = 8 << 20;
    return params;
  }

  sim::Simulator simulator_;
  net::NetworkModel network_;
  net::RpcSystem rpc_;
  net::NodeId client_{0, 0, 1};
};

TEST_F(DfsTest, ReadCompletesWithTimes) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  IoResult result;
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    result = r;
    done = true;
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.served_by, Tier::kHdd);  // cold
  EXPECT_GT(result.total_time, result.device_time);
  EXPECT_GT(result.network_time, SimTime::Zero());
}

TEST_F(DfsTest, SecondReadHitsRam) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  Tier second_tier = Tier::kHdd;
  dfs.Read(client_, 42, 4096, [&](const IoResult&) {
    dfs.Read(client_, 42, 4096,
             [&](const IoResult& r) { second_tier = r.served_by; });
  });
  simulator_.Run();
  EXPECT_EQ(second_tier, Tier::kRam);
}

TEST_F(DfsTest, BlocksSpreadAcrossFileservers) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  std::vector<int> hits(4, 0);
  for (uint64_t block = 0; block < 200; ++block) {
    ++hits[dfs.HomeServer(block)];
  }
  for (int count : hits) {
    EXPECT_GT(count, 20);  // roughly uniform placement
  }
}

TEST_F(DfsTest, HomeServerIsStable) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  for (uint64_t block = 0; block < 50; ++block) {
    EXPECT_EQ(dfs.HomeServer(block), dfs.HomeServer(block));
  }
}

TEST_F(DfsTest, WriteReplicatesToMultipleServers) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  dfs.Write(client_, 7, 8192, /*replication=*/3,
            [&](const IoResult&) { done = true; });
  simulator_.Run();
  ASSERT_TRUE(done);
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 3u);
}

TEST_F(DfsTest, ReplicationClampedToServerCount) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  dfs.Write(client_, 7, 1024, /*replication=*/99,
            [&](const IoResult&) { done = true; });
  simulator_.Run();
  ASSERT_TRUE(done);
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 4u);  // clamped to num_fileservers
}

TEST_F(DfsTest, WriteWaitsForSlowestReplica) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  SimTime single_time, replicated_time;
  dfs.Write(client_, 11, 4096, 1,
            [&](const IoResult& r) { single_time = r.total_time; });
  simulator_.Run();
  dfs.Write(client_, 12, 4096, 3,
            [&](const IoResult& r) { replicated_time = r.total_time; });
  simulator_.Run();
  // Max-of-three is stochastically >= a single ack; with jitter it is
  // almost surely strictly larger.
  EXPECT_GE(replicated_time, single_time);
}

TEST_F(DfsTest, PrewarmZipfWarmsHotBlocks) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.PrewarmZipf(/*ram_blocks=*/10, /*ssd_blocks=*/50, 4096);
  Tier hot_tier = Tier::kHdd, warm_tier = Tier::kHdd,
       cold_tier = Tier::kRam;
  dfs.Read(client_, 5, 4096, [&](const IoResult& r) {
    hot_tier = r.served_by;
  });
  dfs.Read(client_, 30, 4096, [&](const IoResult& r) {
    warm_tier = r.served_by;
  });
  dfs.Read(client_, 5000, 4096, [&](const IoResult& r) {
    cold_tier = r.served_by;
  });
  simulator_.Run();
  EXPECT_EQ(hot_tier, Tier::kRam);
  EXPECT_EQ(warm_tier, Tier::kSsd);
  EXPECT_EQ(cold_tier, Tier::kHdd);
}

TEST_F(DfsTest, PrewarmThatEvictsMatchesIdMajorReference) {
  // Each server holds 16 RAM and 64 SSD blocks of 4 KiB, far below its
  // ~75 RAM and ~250 SSD share of the prewarm, so prewarm itself evicts.
  DfsParams params = SmallParams();
  params.store.ram_bytes = 64 << 10;
  params.store.ssd_bytes = 256 << 10;
  DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3));
  const uint64_t ram_blocks = 300, ssd_blocks = 1000, block_bytes = 4096;
  dfs.PrewarmZipf(ram_blocks, ssd_blocks, block_bytes);

  // Reference: one id-major pass, each id to its home server's caches.
  std::vector<LruCache> ram, ssd;
  for (uint32_t s = 0; s < params.num_fileservers; ++s) {
    ram.emplace_back(params.store.ram_bytes);
    ssd.emplace_back(params.store.ssd_bytes);
  }
  for (uint64_t id = 0; id < ssd_blocks; ++id) {
    const uint32_t home = dfs.HomeServer(id);
    ssd[home].Insert(id, block_bytes);
    if (id < ram_blocks) ram[home].Insert(id, block_bytes);
  }
  for (uint32_t s = 0; s < params.num_fileservers; ++s) {
    const LruCache& ram_cache = dfs.server_store(s).ram_cache();
    const LruCache& ssd_cache = dfs.server_store(s).ssd_cache();
    EXPECT_GT(ram[s].evictions(), 0u) << "server " << s;
    EXPECT_GT(ssd[s].evictions(), 0u) << "server " << s;
    EXPECT_EQ(ram_cache.evictions(), ram[s].evictions()) << "server " << s;
    EXPECT_EQ(ssd_cache.evictions(), ssd[s].evictions()) << "server " << s;
    EXPECT_EQ(ram_cache.entry_count(), ram[s].entry_count()) << "server " << s;
    EXPECT_EQ(ssd_cache.entry_count(), ssd[s].entry_count()) << "server " << s;
    for (uint64_t id = 0; id < ssd_blocks; ++id) {
      EXPECT_EQ(ram_cache.Contains(id), ram[s].Contains(id))
          << "server " << s << " RAM id " << id;
      EXPECT_EQ(ssd_cache.Contains(id), ssd[s].Contains(id))
          << "server " << s << " SSD id " << id;
    }
  }
}

// The warm tails PrewarmZipf leaves are exact only behind empty caches,
// and every IO takes block ids modulo the fileserver count: both hold in
// every build type.
using DfsDeathTest = DfsTest;

TEST_F(DfsDeathTest, SecondPrewarmZipfAborts) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.PrewarmZipf(10, 50, 4096);
  EXPECT_DEATH(dfs.PrewarmZipf(10, 50, 4096), "already holds");
}

TEST_F(DfsDeathTest, PrewarmZipfAfterTrafficAborts) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.Read(client_, 7, 4096, [](const IoResult&) {});
  simulator_.Run();
  EXPECT_DEATH(dfs.PrewarmZipf(10, 50, 4096), "already holds");
}

TEST_F(DfsDeathTest, ZeroFileserversAborts) {
  DfsParams params = SmallParams();
  params.num_fileservers = 0;
  EXPECT_DEATH(
      { DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3)); },
      "num_fileservers is 0");
}

TEST_F(DfsTest, TierServeFractionsAggregateAcrossServers) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.PrewarmZipf(100, 100, 4096);
  int outstanding = 0;
  for (uint64_t block = 0; block < 100; ++block) {
    ++outstanding;
    dfs.Read(client_, block, 4096, [&](const IoResult&) { --outstanding; });
  }
  simulator_.Run();
  EXPECT_EQ(outstanding, 0);
  EXPECT_NEAR(dfs.TierServeFraction(Tier::kRam), 1.0, 1e-9);
}

TEST_F(DfsTest, TierServeFractionSumsRawCountersExactly) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.PrewarmZipf(20, 60, 4096);
  for (uint64_t block = 0; block < 120; ++block) {
    dfs.Read(client_, block, 4096, [](const IoResult&) {});
  }
  simulator_.Run();
  for (Tier tier : {Tier::kRam, Tier::kSsd, Tier::kHdd}) {
    uint64_t total = 0, tier_count = 0;
    for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
      total += dfs.server_store(s).reads();
      tier_count += dfs.server_store(s).tier_reads(tier);
    }
    ASSERT_GT(total, 0u);
    // Exact equality: the aggregate is the raw-counter ratio, not a sum of
    // re-rounded per-store fractions.
    EXPECT_EQ(dfs.TierServeFraction(tier),
              static_cast<double>(tier_count) / static_cast<double>(total));
  }
}

TEST_F(DfsTest, TierServeFractionOldRoundingMathLosesCounts) {
  // Regression pin for the bug this replaces: the old aggregation derived
  // each store's per-tier count as round(fraction * reads + 0.5), where
  // fraction itself is served/reads in double. Past 2^51 reads the
  // round-trip through the fraction no longer recovers the integer. These
  // (reads, served) pairs were found by search; each one re-derives to a
  // different count, so an aggregation built on the old math reports a
  // wrong total while summing raw counters is exact at any magnitude.
  struct Pair {
    uint64_t reads, served;
  };
  const Pair kDiverging[] = {
      {7378732916781557ULL, 7226161561168607ULL},
      {8435094068304335ULL, 6537899815195893ULL},
      {7004262855817095ULL, 6878807688530173ULL},
      {8348309313425887ULL, 6854008534861993ULL},
      {4921447804138685ULL, 4510805342071287ULL},
  };
  for (const Pair& pair : kDiverging) {
    double fraction = static_cast<double>(pair.served) /
                      static_cast<double>(pair.reads);
    uint64_t rederived = static_cast<uint64_t>(
        fraction * static_cast<double>(pair.reads) + 0.5);
    EXPECT_NE(rederived, pair.served)
        << "expected divergence for reads=" << pair.reads;
  }
}

TEST_F(DfsTest, ZeroReplicationWriteReportsInvalidArgument) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  bool callback_was_async = true;
  dfs.Write(client_, 7, 4096, /*replication=*/0, [&](const IoResult& r) {
    done = true;
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  });
  // The completion must not have run on the caller's stack.
  callback_was_async = !done;
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(callback_was_async);
  EXPECT_EQ(dfs.invalid_writes(), 1u);
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 0u);  // nothing touched any store
}

TEST_F(DfsTest, QuorumWriteCompletesEarlyAndStragglersFinish) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  IoResult at_completion;
  SimTime quorum_time;
  dfs.Write(client_, 7, 8192, /*replication=*/3, /*quorum_acks=*/1,
            [&](const IoResult& r) {
              done = true;
              at_completion = r;
              quorum_time = simulator_.Now();
            });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(at_completion.ok());
  EXPECT_EQ(at_completion.acks, 1u);  // released at the first ack
  EXPECT_EQ(dfs.background_acks(), 2u);
  // All three replicas still landed, just in the background.
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 3u);
  // The quorum completion is no later than a full-set write of the same
  // block from an identical substrate.
  sim::Simulator full_sim;
  net::NetworkModel full_net;
  net::RpcSystem full_rpc(&full_sim, &full_net, Rng(2));
  DistributedFileSystem full_dfs(&full_sim, &full_rpc, SmallParams(), Rng(3));
  SimTime full_time;
  full_dfs.Write(client_, 7, 8192, 3,
                 [&](const IoResult&) { full_time = full_sim.Now(); });
  full_sim.Run();
  EXPECT_LE(quorum_time, full_time);
}

TEST_F(DfsTest, WriteFailsWhenQuorumUnreachable) {
  net::FaultModel faults{Rng(9)};
  // Every fileserver node is down for the whole test window.
  for (uint32_t s = 0; s < 4; ++s) {
    faults.AddOutage({net::NodeId{0, 100, s}, SimTime::Zero(),
                      SimTime::FromSeconds(100)});
  }
  rpc_.set_fault_model(&faults);
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  dfs.Write(client_, 7, 4096, /*replication=*/2, /*quorum_acks=*/2,
            [&](const IoResult& r) {
              done = true;
              EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
              EXPECT_EQ(r.acks, 0u);
            });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(dfs.failed_writes(), 1u);
}

TEST_F(DfsTest, ReadRetriesThroughTransientFaultAndReportsAttempts) {
  net::FaultModel faults{Rng(9)};
  net::FaultSpec errors;
  errors.error_probability = 1.0;
  faults.SetMethodFaults("dfs.Read", errors);
  rpc_.set_fault_model(&faults);
  DfsParams params = SmallParams();
  params.read_policy.max_attempts = 2;
  params.read_policy.backoff_base = SimTime::FromSeconds(1);
  DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3));
  // Heal the fault before the backed-off retry fires.
  simulator_.Schedule(SimTime::FromSeconds(0.5), [&]() {
    faults.SetMethodFaults("dfs.Read", net::FaultSpec{});
  });
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    done = true;
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_GT(r.wasted_time, SimTime::Zero());
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(dfs.failed_reads(), 0u);
}

TEST_F(DfsTest, ReadExhaustingPolicySurfacesError) {
  net::FaultModel faults{Rng(9)};
  net::FaultSpec errors;
  errors.error_probability = 1.0;
  faults.SetMethodFaults("dfs.Read", errors);
  rpc_.set_fault_model(&faults);
  DfsParams params = SmallParams();
  params.read_policy.max_attempts = 2;
  DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3));
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    done = true;
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(r.attempts, 2u);
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(dfs.failed_reads(), 1u);
}

TEST_F(DfsTest, HedgedReadCutsInjectedSlowdownTail) {
  net::FaultModel faults{Rng(9)};
  net::FaultSpec slow;
  slow.slowdown_probability = 1.0;
  slow.slowdown_floor = SimTime::Millis(20);
  slow.slowdown_ceil = SimTime::Millis(20);
  faults.SetMethodFaults("dfs.Read", slow);
  rpc_.set_fault_model(&faults);
  DfsParams params = SmallParams();
  params.read_policy.max_attempts = 2;
  params.read_policy.hedge_delay = SimTime::Millis(1);
  DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3));
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    done = true;
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.hedged);
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(rpc_.hedges_issued(), 1u);
  EXPECT_EQ(rpc_.cancelled_attempts(), 1u);
}

}  // namespace
}  // namespace hyperprof::storage
