#include "storage/provisioning.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/strings.h"

namespace hyperprof::storage {

namespace {
// The midpoint-corrected integral tail is accurate to ~1e-11 relative
// beyond ten thousand exact terms for every skew used here, so a small
// exact head keeps provisioning queries fast.
constexpr uint64_t kExactTerms = 10000;

// Integral tail with midpoint correction:
//   sum_{i=head+1..k} i^-s ~= integral_{head+0.5}^{k+0.5} x^-s dx.
double HarmonicTail(uint64_t head, uint64_t k, double s) {
  double a = static_cast<double>(head) + 0.5;
  double b = static_cast<double>(k) + 0.5;
  if (std::fabs(s - 1.0) < 1e-12) return std::log(b / a);
  return (std::pow(b, 1.0 - s) - std::pow(a, 1.0 - s)) / (1.0 - s);
}

// Checked in every build type: with n = 0 the mass is 0 / 0, and the
// search would return a key count above the key space.
void RequireKeys(const char* function, uint64_t n) {
  if (n > 0) return;
  std::fprintf(stderr, "%s: the key space is empty (n = 0)\n", function);
  std::abort();
}
}  // namespace

double GeneralizedHarmonic(uint64_t k, double s) {
  if (k == 0) return 0.0;
  uint64_t head = k < kExactTerms ? k : kExactTerms;
  double sum = 0.0;
  for (uint64_t i = 1; i <= head; ++i) {
    sum += std::pow(static_cast<double>(i), -s);
  }
  if (k > head) sum += HarmonicTail(head, k, s);
  return sum;
}

double ZipfMassFraction(uint64_t k, uint64_t n, double s) {
  RequireKeys("ZipfMassFraction", n);
  if (k >= n) return 1.0;
  return GeneralizedHarmonic(k, s) / GeneralizedHarmonic(n, s);
}

uint64_t MinKeysForMass(double target_mass, uint64_t n, double s) {
  RequireKeys("MinKeysForMass", n);
  if (target_mass <= 0) return 0;
  if (target_mass >= 1.0) return n;
  // prefix[k] is the running sum GeneralizedHarmonic(k, s) forms, term by
  // term in the same order, so every H(k) below (and the mass ratio) is
  // the double ZipfMassFraction would return.
  const uint64_t head = std::min(n, kExactTerms);
  std::vector<double> prefix(head + 1, 0.0);
  for (uint64_t i = 1; i <= head; ++i) {
    prefix[i] = prefix[i - 1] + std::pow(static_cast<double>(i), -s);
  }
  auto harmonic = [&](uint64_t k) {
    return k <= head ? prefix[k] : prefix[head] + HarmonicTail(head, k, s);
  };
  const double total = harmonic(n);
  uint64_t lo = 1, hi = n;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (harmonic(mid) / total >= target_mass) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::string TierSizes::RatioString() const {
  return StrFormat("1 : %.0f : %.0f", SsdPerRam(), HddPerRam());
}

TierSizes ProvisionForProfile(const StorageProfile& profile) {
  assert(profile.num_keys > 0);
  assert(profile.ram_hit_target <= profile.ram_ssd_hit_target);
  const double dataset_bytes =
      static_cast<double>(profile.num_keys) * profile.avg_object_bytes;

  uint64_t ram_keys =
      MinKeysForMass(profile.ram_hit_target, profile.num_keys, profile.zipf_s);
  uint64_t ram_ssd_keys = MinKeysForMass(profile.ram_ssd_hit_target,
                                         profile.num_keys, profile.zipf_s);

  TierSizes sizes;
  sizes.ram_bytes = static_cast<double>(ram_keys) * profile.avg_object_bytes *
                    (1.0 + profile.write_buffer_fraction);
  sizes.ssd_bytes =
      static_cast<double>(ram_ssd_keys) * profile.avg_object_bytes;
  sizes.hdd_bytes = dataset_bytes * profile.replication;
  return sizes;
}

}  // namespace hyperprof::storage
