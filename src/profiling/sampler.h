#ifndef HYPERPROF_PROFILING_SAMPLER_H_
#define HYPERPROF_PROFILING_SAMPLER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "profiling/function_registry.h"
#include "profiling/microarch.h"

namespace hyperprof::profiling {

/** One leaf symbol's folded GWP samples. */
struct SymbolSamples {
  uint64_t samples = 0;
  CounterRollup counters;  // summed PMU deltas of those samples
};

/**
 * GWP samples folded per leaf symbol as they are recorded. Every GWP
 * report (cycle breakdowns, IPC/MPKI rollups, flat profiles) is an
 * integer sum per symbol or per category, so this state is sized by the
 * symbol set, never by run length.
 */
class SampleTable {
 public:
  /** Interns `symbol`, giving it an empty row (idempotent). */
  NameId Intern(std::string_view symbol);

  /** Folds one sample of interned `symbol` into its row. */
  void Add(NameId symbol, const CounterDelta& counters) {
    ++rows_[symbol].samples;
    rows_[symbol].counters.Add(counters);
    ++size_;
  }

  /** Total samples folded, over every symbol. */
  uint64_t size() const { return size_; }

  /** Calls `visit(name, row)` for each symbol that holds samples. */
  template <typename Visit>
  void ForEach(Visit visit) const {
    for (NameId id = 1; id < rows_.size(); ++id) {
      if (rows_[id].samples > 0) visit(names_.Name(id), rows_[id]);
    }
  }

  /** Reserved bytes of rows and names. */
  size_t memory_bytes() const;

 private:
  NameInterner names_;
  std::vector<SymbolSamples> rows_;  // index == NameId; [0] unused
  uint64_t size_ = 0;
};

/**
 * Fleet CPU profiler in the style of Google-Wide Profiling: time-based
 * sampling of on-CPU leaf functions with performance counters attached.
 *
 * The simulated platforms report every function execution interval; the
 * profiler turns each into an expected number of period-spaced samples
 * with random phase (so short activities are sampled proportionally in
 * expectation), synthesizing PMU counters from the activity's
 * microarchitectural profile. Cycle attribution is sample-count x period,
 * exactly how GWP-derived cycle breakdowns are computed. Each sample
 * folds into its symbol's row of samples() when it is drawn.
 */
class CpuProfiler {
 public:
  /**
   * @param sample_period CPU time between samples on one core.
   * @param cpu_hz Core frequency used to convert time to cycles.
   * @param rng Sampling randomness (owned).
   * Aborts in every build unless the period is positive and the
   * frequency positive and finite.
   */
  CpuProfiler(SimTime sample_period, double cpu_hz, Rng rng);

  /** Interns a leaf symbol; callers intern once and record by id. */
  NameId InternSymbol(std::string_view symbol) {
    return samples_.Intern(symbol);
  }

  /**
   * Reports that interned `symbol` ran on-CPU for `duration` with the
   * given microarchitectural behaviour. Folds 0..k samples.
   */
  void RecordActivity(NameId symbol, SimTime duration,
                      const MicroarchProfile& profile);

  /**
   * RecordActivity with the sampling draws taken from `rng` instead of
   * the profiler's own stream. Shard engines pass the running query's
   * stream so sample counts and counter noise are properties of the
   * query, not of which other queries share the kernel.
   */
  void RecordActivity(NameId symbol, SimTime duration,
                      const MicroarchProfile& profile, Rng& rng);

  /** Bytes of the folded table (RSS-independent memory accounting). */
  size_t memory_bytes() const { return samples_.memory_bytes(); }

  const SampleTable& samples() const { return samples_; }

  /** Cycles represented by one sample (period x frequency). */
  double CyclesPerSample() const {
    return sample_period_.ToSeconds() * cpu_hz_;
  }

  SimTime total_cpu_time() const { return total_cpu_time_; }
  uint64_t activities_recorded() const { return activities_; }

 private:
  SimTime sample_period_;
  double cpu_hz_;
  uint64_t cycles_per_sample_ = 0;
  Rng rng_;
  SampleTable samples_;
  SimTime total_cpu_time_;
  uint64_t activities_ = 0;
};

}  // namespace hyperprof::profiling

#endif  // HYPERPROF_PROFILING_SAMPLER_H_
