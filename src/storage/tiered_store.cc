#include "storage/tiered_store.h"

#include <utility>

namespace hyperprof::storage {

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kRam: return "RAM";
    case Tier::kSsd: return "SSD";
    case Tier::kHdd: return "HDD";
  }
  return "unknown";
}

TieredStore::TieredStore(TieredStoreParams params)
    : params_(params), ram_(params.ram_bytes), ssd_(params.ssd_bytes) {}

SimTime TieredStore::DeviceTime(const TierParams& tier, uint64_t bytes,
                                Rng& rng) const {
  double latency = tier.access_latency.ToSeconds();
  if (tier.latency_sigma > 0) {
    latency *= rng.NextLogNormal(0.0, tier.latency_sigma);
  }
  double transfer = tier.bandwidth_bps > 0
                        ? static_cast<double>(bytes) / tier.bandwidth_bps
                        : 0.0;
  return SimTime::FromSeconds(latency + transfer);
}

AccessResult TieredStore::Read(uint64_t block_id, uint64_t bytes, Rng& rng) {
  ++reads_;
  AccessResult result;
  if (ram_.Touch(block_id)) {
    result.served_by = Tier::kRam;
    result.device_time = DeviceTime(params_.ram, bytes, rng);
  } else if (ssd_.Touch(block_id)) {
    result.served_by = Tier::kSsd;
    result.device_time = DeviceTime(params_.ssd, bytes, rng);
    if (params_.admit_on_read) ram_.Insert(block_id, bytes);
  } else {
    result.served_by = Tier::kHdd;
    result.device_time = DeviceTime(params_.hdd, bytes, rng);
    if (params_.admit_on_read) {
      ssd_.Insert(block_id, bytes);
      ram_.Insert(block_id, bytes);
    }
  }
  ++served_by_[static_cast<int>(result.served_by)];
  return result;
}

AccessResult TieredStore::Write(uint64_t block_id, uint64_t bytes, Rng& rng) {
  ++writes_;
  // Buffer in RAM; pay the durable SSD log append on the critical path.
  ram_.Insert(block_id, bytes);
  AccessResult result;
  result.served_by = Tier::kSsd;
  result.device_time = DeviceTime(params_.ssd, bytes, rng);
  return result;
}

void TieredStore::Prewarm(uint64_t block_id, uint64_t bytes, Tier tier) {
  if (tier == Tier::kHdd) return;
  (tier == Tier::kRam ? ram_ : ssd_).Insert(block_id, bytes);
}

void TieredStore::PrewarmRange(Tier tier, uint64_t limit, uint64_t count,
                               uint64_t bytes, LruCache::WarmFilter member) {
  if (tier == Tier::kHdd) return;
  (tier == Tier::kRam ? ram_ : ssd_)
      .Prewarm(limit, count, bytes, std::move(member));
}

double TieredStore::TierServeFraction(Tier tier) const {
  if (reads_ == 0) return 0.0;
  return static_cast<double>(served_by_[static_cast<int>(tier)]) /
         static_cast<double>(reads_);
}

}  // namespace hyperprof::storage
