#include "storage/provisioning.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "platforms/fleet.h"
#include "platforms/platforms.h"

namespace hyperprof::storage {
namespace {

TEST(GeneralizedHarmonicTest, SmallExactValues) {
  EXPECT_DOUBLE_EQ(GeneralizedHarmonic(1, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(GeneralizedHarmonic(2, 1.0), 1.5);
  EXPECT_NEAR(GeneralizedHarmonic(4, 1.0), 1.0 + 0.5 + 1.0 / 3 + 0.25,
              1e-12);
  EXPECT_NEAR(GeneralizedHarmonic(3, 2.0), 1.0 + 0.25 + 1.0 / 9, 1e-12);
}

TEST(GeneralizedHarmonicTest, ZeroTermsIsZero) {
  EXPECT_EQ(GeneralizedHarmonic(0, 1.0), 0.0);
}

TEST(GeneralizedHarmonicTest, MonotonicInK) {
  double prev = 0;
  for (uint64_t k : {1ULL, 10ULL, 100ULL, 10000ULL, 10000000ULL}) {
    double h = GeneralizedHarmonic(k, 0.9);
    EXPECT_GT(h, prev);
    prev = h;
  }
}

TEST(GeneralizedHarmonicTest, TailApproximationAccuracy) {
  // Compare the head+integral approximation against a direct sum just
  // past the exact-head boundary.
  const uint64_t k = 1100000;
  const double s = 0.85;
  double direct = 0;
  for (uint64_t i = 1; i <= k; ++i) {
    direct += std::pow(static_cast<double>(i), -s);
  }
  EXPECT_NEAR(GeneralizedHarmonic(k, s) / direct, 1.0, 1e-6);
}

TEST(ZipfMassTest, FullRangeIsOne) {
  EXPECT_DOUBLE_EQ(ZipfMassFraction(100, 100, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(ZipfMassFraction(200, 100, 0.9), 1.0);
}

TEST(ZipfMassTest, HeadConcentration) {
  // With s=1, the top 1% of a million keys holds a large mass share.
  double mass = ZipfMassFraction(10000, 1000000, 1.0);
  EXPECT_GT(mass, 0.5);
  EXPECT_LT(mass, 1.0);
}

TEST(MinKeysForMassTest, InvertsZipfMass) {
  const uint64_t n = 1 << 20;
  const double s = 0.9;
  for (double target : {0.1, 0.5, 0.9}) {
    uint64_t k = MinKeysForMass(target, n, s);
    EXPECT_GE(ZipfMassFraction(k, n, s), target);
    if (k > 1) {
      EXPECT_LT(ZipfMassFraction(k - 1, n, s), target);
    }
  }
}

TEST(MinKeysForMassTest, Extremes) {
  EXPECT_EQ(MinKeysForMass(0.0, 100, 0.9), 0u);
  EXPECT_EQ(MinKeysForMass(1.0, 100, 0.9), 100u);
}

// The reference search: bisection over the public ZipfMassFraction, which
// recomputes H(mid) and H(n) at every step.
uint64_t BisectZipfMassFraction(double target_mass, uint64_t n, double s) {
  if (target_mass <= 0) return 0;
  if (target_mass >= 1.0) return n;
  uint64_t lo = 1, hi = n;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (ZipfMassFraction(mid, n, s) >= target_mass) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(MinKeysForMassTest, MatchesBisectionOverZipfMassFraction) {
  // Key spaces below, at and just above the 10,000-term exact head; s = 1
  // takes the log tail.
  for (uint64_t n : {1ULL, 37ULL, 9999ULL, 10000ULL, 10001ULL, 123457ULL}) {
    for (double s : {0.6, 0.85, 0.95, 1.0, 1.2}) {
      for (double target : {0.01, 0.2, 0.5, 0.8, 0.95, 0.999}) {
        EXPECT_EQ(MinKeysForMass(target, n, s),
                  BisectZipfMassFraction(target, n, s))
            << "n " << n << " s " << s << " target " << target;
      }
    }
  }
  for (const platforms::PlatformSpec& spec :
       {platforms::SpannerSpec(), platforms::BigTableSpec(),
        platforms::BigQuerySpec()}) {
    for (double target : {spec.ram_hit_target, spec.ram_ssd_hit_target}) {
      EXPECT_EQ(MinKeysForMass(target, spec.block_space, spec.block_zipf_s),
                BisectZipfMassFraction(target, spec.block_space,
                                       spec.block_zipf_s))
          << spec.name << " target " << target;
    }
  }
}

TEST(MinKeysForMassDeathTest, RejectsEmptyKeySpace) {
  EXPECT_DEATH(MinKeysForMass(0.5, 0, 0.9),
               "MinKeysForMass: the key space is empty");
  EXPECT_DEATH(ZipfMassFraction(1, 0, 0.9),
               "ZipfMassFraction: the key space is empty");
}

TEST(MinKeysForMassDeathTest, AddPlatformRejectsEmptyBlockSpace) {
  platforms::PlatformSpec spec = platforms::SpannerSpec();
  spec.block_space = 0;
  EXPECT_DEATH(
      {
        platforms::FleetSimulation fleet(platforms::FleetConfig{});
        fleet.AddPlatform(spec);
      },
      "MinKeysForMass: the key space is empty");
}

TEST(ProvisionTest, HigherHitTargetNeedsMoreRam) {
  StorageProfile low = platforms::SpannerStorageProfile();
  StorageProfile high = low;
  high.ram_hit_target = low.ram_hit_target + 0.2;
  high.ram_ssd_hit_target =
      std::max(high.ram_hit_target, high.ram_ssd_hit_target);
  EXPECT_GT(ProvisionForProfile(high).ram_bytes,
            ProvisionForProfile(low).ram_bytes);
}

TEST(ProvisionTest, HddScalesWithReplication) {
  StorageProfile base = platforms::BigQueryStorageProfile();
  StorageProfile more = base;
  more.replication = base.replication * 2;
  EXPECT_NEAR(ProvisionForProfile(more).hdd_bytes,
              2 * ProvisionForProfile(base).hdd_bytes, 1.0);
}

// Table 1 reproduction: the provisioning model with the calibrated
// platform profiles lands near the paper's published capacity ratios.
struct RatioCase {
  const char* platform;
  double paper_ssd_per_ram;
  double paper_hdd_per_ram;
};

// Without a printer gtest dumps the struct's raw bytes, which include the
// load-address-dependent `platform` pointer; gtest_discover_tests puts that
// dump into the ctest name, so every relink would rename the cases.
void PrintTo(const RatioCase& c, std::ostream* os) {
  *os << c.platform << " SSD:RAM " << c.paper_ssd_per_ram << " HDD:RAM "
      << c.paper_hdd_per_ram;
}

class Table1Test : public ::testing::TestWithParam<RatioCase> {};

TEST_P(Table1Test, RatiosNearPaper) {
  const RatioCase& expected = GetParam();
  StorageProfile profile;
  if (std::string(expected.platform) == "Spanner") {
    profile = platforms::SpannerStorageProfile();
  } else if (std::string(expected.platform) == "BigTable") {
    profile = platforms::BigTableStorageProfile();
  } else {
    profile = platforms::BigQueryStorageProfile();
  }
  TierSizes sizes = ProvisionForProfile(profile);
  // Shape tolerance: within 35% relative of the published ratio (the
  // published values come from fleet accounting we can only approximate).
  EXPECT_NEAR(sizes.SsdPerRam() / expected.paper_ssd_per_ram, 1.0, 0.35)
      << profile.platform << " SSD:RAM = " << sizes.SsdPerRam();
  EXPECT_NEAR(sizes.HddPerRam() / expected.paper_hdd_per_ram, 1.0, 0.35)
      << profile.platform << " HDD:RAM = " << sizes.HddPerRam();
}

INSTANTIATE_TEST_SUITE_P(
    PaperRatios, Table1Test,
    ::testing::Values(RatioCase{"Spanner", 16, 164},
                      RatioCase{"BigTable", 7, 777},
                      RatioCase{"BigQuery", 8, 90}),
    [](const ::testing::TestParamInfo<RatioCase>& info) {
      return info.param.platform;
    });

TEST(TierSizesTest, RatioStringFormat) {
  TierSizes sizes;
  sizes.ram_bytes = 1;
  sizes.ssd_bytes = 16;
  sizes.hdd_bytes = 164;
  EXPECT_EQ(sizes.RatioString(), "1 : 16 : 164");
}

}  // namespace
}  // namespace hyperprof::storage
