#ifndef HYPERPROF_STORAGE_TIERED_STORE_H_
#define HYPERPROF_STORAGE_TIERED_STORE_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "storage/lru_cache.h"

namespace hyperprof::storage {

/** The three media tiers of the disaggregated storage hierarchy. */
enum class Tier { kRam = 0, kSsd = 1, kHdd = 2 };

const char* TierName(Tier tier);

/** Device-level timing parameters for one tier. */
struct TierParams {
  SimTime access_latency;    // fixed per-access latency
  double bandwidth_bps = 0;  // sequential transfer bandwidth, bytes/s
  double latency_sigma = 0;  // lognormal jitter sigma on the latency
};

/** Configuration of a tiered store instance. */
struct TieredStoreParams {
  uint64_t ram_bytes = 64ULL << 30;   // RAM read-cache / write-buffer size
  uint64_t ssd_bytes = 1ULL << 40;    // flash cache size
  TierParams ram{SimTime::Nanos(250), 2.0e10, 0.05};
  TierParams ssd{SimTime::Micros(80), 2.0e9, 0.2};
  TierParams hdd{SimTime::Millis(8), 1.8e8, 0.3};
  // Blocks read from HDD are admitted to the SSD cache; blocks read from
  // SSD or HDD are admitted to RAM. Matches the read-through policy of
  // production caching layers.
  bool admit_on_read = true;
};

/** Outcome of a read or write against the store. */
struct AccessResult {
  Tier served_by = Tier::kRam;
  SimTime device_time;  // media latency + transfer
};

/**
 * Local tiered block store: RAM cache over SSD cache over HDD.
 *
 * This is the per-fileserver building block of the distributed filesystem
 * model. Reads walk the hierarchy top-down and fill upper tiers; writes
 * land in the RAM write buffer and pay a synchronous SSD log append (the
 * durable commit), with HDD capacity accounted but its writes assumed
 * asynchronous (background flush), as in production log-structured stores.
 */
class TieredStore {
 public:
  explicit TieredStore(TieredStoreParams params);

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  /** Reads `bytes` of block `block_id`; returns serving tier and time. */
  AccessResult Read(uint64_t block_id, uint64_t bytes, Rng& rng);

  /** Durably writes `bytes` of block `block_id`. */
  AccessResult Write(uint64_t block_id, uint64_t bytes, Rng& rng);

  /**
   * Installs a block into the given cache tier without timing or stats.
   * No-op for Tier::kHdd (HDD holds everything).
   */
  void Prewarm(uint64_t block_id, uint64_t bytes, Tier tier);

  /**
   * Starts an empty cache tier warm with the `count` ids below `limit`
   * that `member` accepts, as if each had been Prewarm'ed in ascending
   * order, without building their index entries (LruCache::Prewarm) —
   * used to start simulations from a warm steady state instead of an
   * all-cold fleet. No-op for Tier::kHdd.
   */
  void PrewarmRange(Tier tier, uint64_t limit, uint64_t count, uint64_t bytes,
                    LruCache::WarmFilter member);

  /** Fraction of reads served by each tier (RAM, SSD, HDD). */
  double TierServeFraction(Tier tier) const;

  /** Raw count of reads served by one tier (exact, unlike the fraction). */
  uint64_t tier_reads(Tier tier) const {
    return served_by_[static_cast<int>(tier)];
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

  const LruCache& ram_cache() const { return ram_; }
  const LruCache& ssd_cache() const { return ssd_; }

  /** Bytes reserved by both cache indexes (installed entries only). */
  size_t memory_bytes() const {
    return ram_.memory_bytes() + ssd_.memory_bytes();
  }

 private:
  SimTime DeviceTime(const TierParams& tier, uint64_t bytes, Rng& rng) const;

  TieredStoreParams params_;
  LruCache ram_;
  LruCache ssd_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t served_by_[3] = {0, 0, 0};
};

}  // namespace hyperprof::storage

#endif  // HYPERPROF_STORAGE_TIERED_STORE_H_
