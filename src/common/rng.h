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

  /** Bytes reserved by the table. */
  size_t memory_bytes() const;

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/**
 * Zipfian sampler over ranks [0, n) with skew parameter s.
 *
 * Key popularity in production KV stores is Zipf-like; this drives the
 * cache-hit behaviour of the storage substrate. Implemented via an alias
 * table over the rank probabilities, so draws are O(1).
 *
 * `threads` is a host-thread budget for the build: the rank weights
 * 1 / (i + 1)^s are computed in kFillChunk-sized chunks on up to that
 * many threads (the calling thread included). Every weight is the same
 * double whichever thread computes it, and the AliasSampler pass over
 * them stays serial and in index order, so the table is bit-identical
 * at every thread count. A table of at most one chunk starts no thread.
 */
class ZipfSampler {
 public:
  /** Weights per fill job. */
  static constexpr size_t kFillChunk = size_t{1} << 14;

  ZipfSampler(size_t n, double s, size_t threads = 1);

  size_t Sample(Rng& rng) const { return sampler_.Sample(rng); }
  size_t size() const { return sampler_.size(); }
  size_t memory_bytes() const { return sampler_.memory_bytes(); }

  /** Normalized probability of rank i, in O(n) (for inspection/tests). */
  double Probability(size_t i) const { return sampler_.Probability(i); }

 private:
  AliasSampler sampler_;
};

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_RNG_H_
