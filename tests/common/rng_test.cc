#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hyperprof {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], n / 10.0, 5 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    int64_t value = rng.NextInt(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
  }
  // Degenerate range.
  EXPECT_EQ(rng.NextInt(5, 5), 5);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double value = rng.NextGaussian();
    sum += value;
    sum_sq += value * value;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(23);
  const int n = 100001;
  std::vector<double> values(n);
  for (auto& value : values) value = rng.NextLogNormal(1.0, 0.5);
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  // Median of lognormal(mu, sigma) is e^mu.
  EXPECT_NEAR(values[n / 2], std::exp(1.0), 0.1);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    double value = rng.NextBoundedPareto(1.2, 1.0, 1000.0);
    EXPECT_GE(value, 1.0);
    EXPECT_LE(value, 1000.0);
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child stream should not track parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(37);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.NextBool(0.3);
  EXPECT_NEAR(heads / static_cast<double>(n), 0.3, 0.01);
}

TEST(AliasSamplerTest, NormalizesWeights) {
  AliasSampler sampler({1.0, 3.0});
  EXPECT_DOUBLE_EQ(sampler.Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.Probability(1), 0.75);
}

TEST(AliasSamplerTest, EmpiricalFrequenciesMatchWeights) {
  AliasSampler sampler({0.1, 0.2, 0.3, 0.4});
  Rng rng(41);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  for (int v = 0; v < 4; ++v) {
    double expected = sampler.Probability(v);
    EXPECT_NEAR(counts[v] / static_cast<double>(n), expected, 0.01);
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({0.0, 1.0, 0.0});
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(sampler.Sample(rng), 1u);
  }
}

TEST(AliasSamplerTest, AllZeroWeightsFallBackToUniform) {
  AliasSampler sampler({0.0, 0.0});
  Rng rng(47);
  int first = 0;
  for (int i = 0; i < 10000; ++i) {
    if (sampler.Sample(rng) == 0) ++first;
  }
  EXPECT_NEAR(first / 10000.0, 0.5, 0.05);
}

TEST(AliasSamplerTest, SingleElement) {
  AliasSampler sampler({5.0});
  Rng rng(53);
  EXPECT_EQ(sampler.Sample(rng), 0u);
}

/**
 * Order-sensitive FNV-1a fold of `draws` samples: any change to the table
 * a sampler builds moves it, not only a change to the distribution.
 */
template <typename Sampler>
uint64_t DrawDigest(const Sampler& sampler, uint64_t seed, int draws) {
  Rng rng(seed);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (int i = 0; i < draws; ++i) {
    digest ^= sampler.Sample(rng);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

TEST(AliasSamplerTest, DrawDigestIsPinned) {
  // Irregular weights with zeros and a few heavy entries, so both work
  // stacks are long and the pairing order shapes the table.
  std::vector<double> weights(1000);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] =
        i % 5 == 0 ? 0.0 : std::fmod(0.618 * static_cast<double>(i), 3.0);
  }
  weights[17] = 40.0;
  weights[500] = 25.5;
  AliasSampler sampler(weights);
  EXPECT_EQ(DrawDigest(sampler, 71, 100000), 0x82cf9530b8ed8875ULL);
}

TEST(AliasSamplerDeathTest, RejectsNegativeWeight) {
  EXPECT_DEATH(AliasSampler({1.0, -0.5, 2.0}), "weight 1 is -0.5");
}

TEST(AliasSamplerDeathTest, RejectsNanWeight) {
  EXPECT_DEATH(AliasSampler({1.0, 2.0, std::nan("")}), "weight 2 is -?nan");
}

TEST(ZipfSamplerTest, DrawDigestIsPinned) {
  ZipfSampler zipf(1 << 16, 0.85);
  EXPECT_EQ(DrawDigest(zipf, 67, 100000), 0xe61a7137a1df73cfULL);
}

TEST(ZipfSamplerTest, DrawFrequenciesMatchExactMass) {
  // The paper specs' block spaces and exponents, and s = 1, where the
  // hat integral is a plain log. Each of ranks 0-9 and the tail bucket
  // [n/2, n) must come within 5 standard errors of its exact Zipf mass.
  struct Case {
    size_t n;
    double s;
  };
  const Case cases[] = {
      {size_t{1} << 22, 0.85},  // Spanner
      {size_t{1} << 22, 0.95},  // BigTable
      {size_t{1} << 23, 0.6},   // BigQuery
      {size_t{1} << 20, 1.0},
  };
  const int draws = 1000000;
  constexpr size_t kHead = 10;
  for (const Case& c : cases) {
    // Exact masses, summed smallest term first.
    double total = 0, tail = 0;
    for (size_t k = c.n; k >= 1; --k) {
      total += std::pow(static_cast<double>(k), -c.s);
      if (k == c.n / 2 + 1) tail = total;
    }
    ZipfSampler zipf(c.n, c.s);
    ASSERT_EQ(zipf.size(), c.n);
    Rng rng(83);
    std::vector<int> head(kHead, 0);
    int in_tail = 0;
    for (int i = 0; i < draws; ++i) {
      const size_t rank = zipf.Sample(rng);
      ASSERT_LT(rank, c.n);
      if (rank < kHead) ++head[rank];
      if (rank >= c.n / 2) ++in_tail;
    }
    auto expect_mass = [&](int count, double mass, const char* what) {
      const double error = std::sqrt(mass * (1 - mass) / draws);
      EXPECT_NEAR(count / static_cast<double>(draws), mass, 5 * error)
          << what << " at n=" << c.n << " s=" << c.s;
    };
    for (size_t r = 0; r < kHead; ++r) {
      expect_mass(head[r], std::pow(static_cast<double>(r + 1), -c.s) / total,
                  ("rank " + std::to_string(r)).c_str());
    }
    expect_mass(in_tail, tail / total, "tail [n/2, n)");
  }
}

TEST(ZipfSamplerDeathTest, RejectsExponentThatIsNotPositiveAndFinite) {
  EXPECT_DEATH(ZipfSampler(100, 0.0), "exponent s is 0");
  EXPECT_DEATH(ZipfSampler(100, -0.5), "exponent s is -0.5");
  EXPECT_DEATH(ZipfSampler(100, std::nan("")), "exponent s is -?nan");
  EXPECT_DEATH(ZipfSampler(100, INFINITY), "exponent s is inf");
}

TEST(ZipfSamplerTest, RankOneIsMostPopular) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(59);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfSamplerTest, HeadMassMatchesTheory) {
  const size_t n = 1000;
  const double s = 0.9;
  ZipfSampler zipf(n, s);
  Rng rng(61);
  int head = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // Theoretical mass of the top 10 ranks.
  double num = 0, den = 0;
  for (size_t k = 1; k <= n; ++k) {
    double w = std::pow(static_cast<double>(k), -s);
    den += w;
    if (k <= 10) num += w;
  }
  EXPECT_NEAR(head / static_cast<double>(draws), num / den, 0.01);
}

}  // namespace
}  // namespace hyperprof
