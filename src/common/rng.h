#ifndef HYPERPROF_COMMON_RNG_H_
#define HYPERPROF_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperprof {

/**
 * Deterministic pseudo-random number generator (xoshiro256**) with a
 * SplitMix64 seeder.
 *
 * Every stochastic component in the library draws from an Rng so that whole
 * fleet simulations are reproducible bit-for-bit from a single seed. The
 * generator is cheap (4x uint64 state, no allocation) and passes BigCrush.
 */
class Rng {
 public:
  /** Seeds the generator; identical seeds yield identical streams. */
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /** Returns the next raw 64-bit value. */
  uint64_t Next();

  /** Uniform double in [0, 1). */
  double NextDouble();

  /** Uniform integer in [0, bound) using Lemire's rejection method. */
  uint64_t NextBounded(uint64_t bound);

  /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
  int64_t NextInt(int64_t lo, int64_t hi);

  /** Bernoulli draw with success probability p. */
  bool NextBool(double p);

  /** Exponential draw with the given mean (mean > 0). */
  double NextExponential(double mean);

  /**
   * Log-normal draw parameterized by the mean and sigma of the *underlying*
   * normal distribution.
   */
  double NextLogNormal(double mu, double sigma);

  /** Standard normal draw (Box-Muller, no caching for determinism). */
  double NextGaussian();

  /**
   * Bounded Pareto draw on [lo, hi] with shape alpha.
   *
   * Heavy-tailed request/value sizes in hyperscale storage follow bounded
   * Pareto-like distributions; the bound keeps simulations finite.
   */
  double NextBoundedPareto(double alpha, double lo, double hi);

  /**
   * Forks an independent child generator.
   *
   * Used to hand each simulated worker its own stream so per-worker event
   * ordering does not perturb other workers' draws.
   */
  Rng Fork();

 private:
  uint64_t s_[4];
};

/**
 * O(1) sampling from a fixed discrete distribution via Walker's alias
 * method.
 *
 * Platform engines sample millions of categorized function activities per
 * run; the alias table makes each draw two RNG calls and two table reads.
 * The table is 12 bytes per entry (a double threshold and a uint32 alias),
 * built in place over the caller's weight vector.
 */
class AliasSampler {
 public:
  /**
   * Builds the table from finite, non-negative weights, which need not be
   * normalized; the vector's storage becomes the table. An all-zero weight
   * vector yields a uniform sampler. Aborts on a negative, NaN or
   * infinite weight in every build type.
   */
  explicit AliasSampler(std::vector<double> weights);

  /** Samples an index in [0, size()). */
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

  /**
   * Normalized probability of index i, recovered from the table in O(n)
   * (for inspection/tests).
   */
  double Probability(size_t i) const;

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/**
 * Zipfian sampler over ranks [0, n): rank i is drawn with probability
 * proportional to 1 / (i + 1)^s.
 *
 * Key popularity in production KV stores is Zipf-like; this drives the
 * cache-hit behaviour of the storage substrate. Draws are exact, by
 * Hörmann and Derflinger's rejection-inversion ("Rejection-inversion to
 * generate variates from monotone discrete distributions", ACM TOMACS
 * 6(3), 1996; the algorithm of Apache Commons RNG's
 * RejectionInversionZipfSampler). The state is five scalars whatever n
 * is, and a draw takes one uniform per attempt and a few log/exp calls,
 * with at most 1.02 attempts per draw on average for s from 0.05 to 10.
 */
class ZipfSampler {
 public:
  /** n == 0 means one rank. Aborts unless s is positive and finite. */
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng& rng) const;
  size_t size() const { return n_; }

 private:
  size_t n_;
  double s_;
  double h_integral_x1_;  // HIntegral(1.5) - 1
  double h_integral_n_;   // HIntegral(n + 0.5)
  // A point within this distance below its rank is accepted without
  // evaluating the hat (Theorem 2 of the paper).
  double accept_radius_;
};

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_RNG_H_
