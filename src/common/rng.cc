#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <utility>

namespace hyperprof {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

[[noreturn]] void InvalidWeight(size_t index, double weight) {
  std::fprintf(stderr,
               "AliasSampler: weight %zu is %g; weights must be finite and "
               "non-negative\n",
               index, weight);
  std::abort();
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::NextGaussian() {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

double Rng::NextBoundedPareto(double alpha, double lo, double hi) {
  assert(alpha > 0 && lo > 0 && hi > lo);
  double u = NextDouble();
  double la = std::pow(lo, alpha);
  double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

AliasSampler::AliasSampler(std::vector<double> weights)
    : prob_(std::move(weights)) {
  if (prob_.empty()) prob_.push_back(1.0);
  const size_t n = prob_.size();
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    const double w = prob_[i];
    if (!(w >= 0 && std::isfinite(w))) InvalidWeight(i, w);
    total += w;
  }
  if (total <= 0) {
    prob_.assign(n, 1.0);
    total = static_cast<double>(n);
  }

  // prob_ holds each entry's scaled weight (mean 1) until the entry leaves
  // the work stacks. One array holds both LIFO stacks: entries below 1 grow
  // up from the front, the rest grow down from the back. Every entry sits
  // on at most one stack, so they never meet.
  alias_.assign(n, 0);
  std::vector<uint32_t> work(n);
  size_t small_end = 0;
  size_t large_begin = n;
  for (size_t i = 0; i < n; ++i) {
    prob_[i] = prob_[i] / total * static_cast<double>(n);
    if (prob_[i] < 1.0) {
      work[small_end++] = static_cast<uint32_t>(i);
    } else {
      work[--large_begin] = static_cast<uint32_t>(i);
    }
  }
  while (small_end > 0 && large_begin < n) {
    const uint32_t s = work[--small_end];
    const uint32_t l = work[large_begin++];
    // prob_[s] is final: s's own share of its column.
    alias_[s] = l;
    prob_[l] = prob_[l] + prob_[s] - 1.0;
    if (prob_[l] < 1.0) {
      work[small_end++] = l;
    } else {
      work[--large_begin] = l;
    }
  }
  // Entries left on either stack own their whole column.
  for (size_t k = 0; k < small_end; ++k) prob_[work[k]] = 1.0;
  for (size_t k = large_begin; k < n; ++k) prob_[work[k]] = 1.0;
}

size_t AliasSampler::Sample(Rng& rng) const {
  size_t i = rng.NextBounded(prob_.size());
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

double AliasSampler::Probability(size_t i) const {
  // Column i's own share plus the remainder of every column aliased to i
  // (whole columns contribute 1 - 1 = 0).
  double mass = prob_[i];
  for (size_t j = 0; j < prob_.size(); ++j) {
    if (alias_[j] == i) mass += 1.0 - prob_[j];
  }
  return mass / static_cast<double>(prob_.size());
}

namespace {

[[noreturn]] void InvalidExponent(double s) {
  std::fprintf(stderr,
               "ZipfSampler: exponent s is %g; it must be positive and "
               "finite\n",
               s);
  std::abort();
}

// log(1 + x) / x and (exp(x) - 1) / x, by their Taylor series near 0,
// where the quotients lose precision (s near 1).
double Log1pOverX(double x) {
  if (std::fabs(x) > 1e-8) return std::log1p(x) / x;
  return 1 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
}

double Expm1OverX(double x) {
  if (std::fabs(x) > 1e-8) return std::expm1(x) / x;
  return 1 + x * 0.5 * (1 + x * (1.0 / 3.0) * (1 + 0.25 * x));
}

// The hat h(x) = x^-s over the ranks, its integral
// H(x) = (x^(1-s) - 1) / (1 - s) (log x at s = 1), and H's inverse.
double Hat(double x, double s) { return std::exp(-s * std::log(x)); }

double HIntegral(double x, double s) {
  const double log_x = std::log(x);
  return Expm1OverX((1 - s) * log_x) * log_x;
}

double HIntegralInverse(double x, double s) {
  // Rounding can push t just below -1, where log1p has no value.
  const double t = std::max(-1.0, x * (1 - s));
  return std::exp(Log1pOverX(t) * x);
}

}  // namespace

ZipfSampler::ZipfSampler(size_t n, double s) : n_(n == 0 ? 1 : n), s_(s) {
  if (!(s > 0 && std::isfinite(s))) InvalidExponent(s);
  h_integral_x1_ = HIntegral(1.5, s) - 1;
  h_integral_n_ = HIntegral(static_cast<double>(n_) + 0.5, s);
  accept_radius_ = 2 - HIntegralInverse(HIntegral(2.5, s) - Hat(2, s), s);
}

size_t ZipfSampler::Sample(Rng& rng) const {
  // Ranks k are 1-based here. Under the hat, rank 1 owns
  // (h_integral_x1_, H(1.5)] and rank k > 1 owns (H(k - 0.5), H(k + 0.5)],
  // so a uniform u over all of them picks k with probability proportional
  // to its hat area; accepting with h(k) over that area leaves k^-s.
  const double n = static_cast<double>(n_);
  while (true) {
    const double u = h_integral_n_ +
                     rng.NextDouble() * (h_integral_x1_ - h_integral_n_);
    const double x = HIntegralInverse(u, s_);
    // Clamp before converting: rounding can land a hair outside [1, n].
    const double k = std::clamp(std::floor(x + 0.5), 1.0, n);
    if (k - x <= accept_radius_ || u >= HIntegral(k + 0.5, s_) - Hat(k, s_)) {
      return static_cast<size_t>(k) - 1;
    }
  }
}

}  // namespace hyperprof
