#ifndef HYPERPROF_STORAGE_PROVISIONING_H_
#define HYPERPROF_STORAGE_PROVISIONING_H_

#include <cstdint>
#include <string>

namespace hyperprof::storage {

/**
 * Generalized harmonic number H(k, s) = sum_{i=1..k} i^-s.
 *
 * Exact summation up to ten thousand terms; exact head plus integral
 * tail above (relative error < 1e-6 for the skews used here). This is the
 * popularity mass function of a Zipf(s) distribution.
 */
double GeneralizedHarmonic(uint64_t k, double s);

/**
 * Fraction of accesses that hit the hottest `k` of `n` Zipf(s) keys.
 * Aborts with a message when n is 0, in every build type.
 */
double ZipfMassFraction(uint64_t k, uint64_t n, double s);

/**
 * Smallest key count whose cumulative Zipf mass reaches `target_mass`.
 * Binary search over the same doubles ZipfMassFraction computes, with the
 * exact head's prefix sums and H(n) computed once per call; returns n
 * when the target is unreachable. Aborts with a message when n is 0, in
 * every build type.
 */
uint64_t MinKeysForMass(double target_mass, uint64_t n, double s);

/**
 * Behavioural storage profile of one platform, from which tier capacities
 * are derived. These are the *inputs* a capacity planner would actually
 * know: dataset shape, access skew, durability policy, and cache hit-rate
 * targets.
 */
struct StorageProfile {
  std::string platform;
  uint64_t num_keys = 0;          // distinct objects
  double zipf_s = 0.9;            // access skew
  double avg_object_bytes = 0;    // mean object size
  double ram_hit_target = 0;      // reads served from RAM
  double ram_ssd_hit_target = 0;  // reads served from RAM or SSD
  double replication = 3.0;       // durable-copy multiplier on HDD
  double write_buffer_fraction = 0.0;  // extra RAM for write buffering,
                                       // as a fraction of RAM read cache
};

/** Provisioned capacity per tier, in bytes. */
struct TierSizes {
  double ram_bytes = 0;
  double ssd_bytes = 0;
  double hdd_bytes = 0;

  /** SSD and HDD bytes per byte of RAM (the Table 1 presentation). */
  double SsdPerRam() const { return ram_bytes > 0 ? ssd_bytes / ram_bytes : 0; }
  double HddPerRam() const { return ram_bytes > 0 ? hdd_bytes / ram_bytes : 0; }

  /** Renders "1 : x : y" as in Table 1. */
  std::string RatioString() const;
};

/**
 * Sizes the tiers so the Zipf-skewed read stream meets the profile's
 * hit-rate targets: RAM holds the hottest keys up to `ram_hit_target`
 * mass, SSD extends coverage to `ram_ssd_hit_target`, and HDD holds every
 * durable replica.
 */
TierSizes ProvisionForProfile(const StorageProfile& profile);

}  // namespace hyperprof::storage

#endif  // HYPERPROF_STORAGE_PROVISIONING_H_
