#include "profiling/sampler.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hyperprof::profiling {

NameId SampleTable::Intern(std::string_view symbol) {
  NameId id = names_.Intern(symbol);
  if (id >= rows_.size()) rows_.resize(id + 1);
  return id;
}

size_t SampleTable::memory_bytes() const {
  return rows_.capacity() * sizeof(SymbolSamples) + names_.memory_bytes();
}

CpuProfiler::CpuProfiler(SimTime sample_period, double cpu_hz, Rng rng)
    : sample_period_(sample_period), cpu_hz_(cpu_hz), rng_(std::move(rng)) {
  // Checked in every build: a zero period makes each activity's sample
  // count infinite, and an infinite frequency (or a period too long for
  // the frequency) each sample's cycle count; converting either to an
  // integer is undefined.
  if (!(sample_period > SimTime::Zero()) || !(cpu_hz > 0) ||
      !(CyclesPerSample() < 0x1p64)) {
    std::fprintf(stderr,
                 "CpuProfiler: sample period is %lld ns and frequency %g "
                 "Hz; both must be positive and finite, and a sample's "
                 "cycles must fit in 64 bits\n",
                 static_cast<long long>(sample_period.nanos()), cpu_hz);
    std::abort();
  }
  cycles_per_sample_ = static_cast<uint64_t>(CyclesPerSample() + 0.5);
}

void CpuProfiler::RecordActivity(NameId symbol, SimTime duration,
                                 const MicroarchProfile& profile) {
  RecordActivity(symbol, duration, profile, rng_);
}

void CpuProfiler::RecordActivity(NameId symbol, SimTime duration,
                                 const MicroarchProfile& profile, Rng& rng) {
  if (duration <= SimTime::Zero()) return;
  ++activities_;
  total_cpu_time_ += duration;
  // Random-phase periodic sampling: an activity of length d yields
  // floor(d/T) samples plus one more with probability frac(d/T).
  double expected = duration.ToSeconds() / sample_period_.ToSeconds();
  uint64_t count = static_cast<uint64_t>(expected);
  if (rng.NextBool(expected - std::floor(expected))) ++count;
  for (uint64_t i = 0; i < count; ++i) {
    samples_.Add(symbol,
                 SynthesizeCounters(profile, cycles_per_sample_, rng));
  }
}

}  // namespace hyperprof::profiling
