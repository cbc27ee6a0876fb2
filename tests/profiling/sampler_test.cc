#include "profiling/sampler.h"

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace hyperprof::profiling {
namespace {

MicroarchProfile FlatProfile() {
  MicroarchProfile profile;
  profile.ipc = 1.0;
  return profile;
}

/** The folded rows of every symbol that holds samples, by name. */
std::map<std::string, SymbolSamples> RowsByName(const CpuProfiler& profiler) {
  std::map<std::string, SymbolSamples> rows;
  profiler.samples().ForEach(
      [&rows](std::string_view name, const SymbolSamples& row) {
        rows[std::string(name)] = row;
      });
  return rows;
}

TEST(SamplerTest, LongActivityYieldsProportionalSamples) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(1));
  profiler.RecordActivity(profiler.InternSymbol("f"), SimTime::Millis(10),
                          FlatProfile());
  // 10ms / 100us = 100 samples (+-1 from the fractional draw).
  EXPECT_NEAR(static_cast<double>(profiler.samples().size()), 100.0, 1.0);
}

TEST(SamplerTest, ShortActivitiesSampleProportionallyInExpectation) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(2));
  const NameId symbol = profiler.InternSymbol("short");
  // 10k activities of 10us = 1s of CPU; expect ~10000 * 0.1 = 1000 samples.
  for (int i = 0; i < 10000; ++i) {
    profiler.RecordActivity(symbol, SimTime::Micros(10), FlatProfile());
  }
  EXPECT_NEAR(static_cast<double>(profiler.samples().size()), 1000.0, 100.0);
}

TEST(SamplerTest, RelativeCategoryWeightsRecovered) {
  CpuProfiler profiler(SimTime::Micros(50), 3e9, Rng(3));
  const NameId hot = profiler.InternSymbol("hot");
  const NameId cold = profiler.InternSymbol("cold");
  // "hot" gets 3x the CPU time of "cold".
  for (int i = 0; i < 3000; ++i) {
    profiler.RecordActivity(hot, SimTime::Micros(30), FlatProfile());
  }
  for (int i = 0; i < 1000; ++i) {
    profiler.RecordActivity(cold, SimTime::Micros(30), FlatProfile());
  }
  std::map<std::string, SymbolSamples> rows = RowsByName(profiler);
  const uint64_t total = profiler.samples().size();
  EXPECT_EQ(rows["hot"].samples + rows["cold"].samples, total);
  double fraction = static_cast<double>(rows["hot"].samples) /
                    static_cast<double>(total);
  EXPECT_NEAR(fraction, 0.75, 0.04);
}

TEST(SamplerTest, ZeroDurationIgnored) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(4));
  profiler.RecordActivity(profiler.InternSymbol("f"), SimTime::Zero(),
                          FlatProfile());
  EXPECT_EQ(profiler.samples().size(), 0u);
  EXPECT_TRUE(RowsByName(profiler).empty());
  EXPECT_EQ(profiler.activities_recorded(), 0u);
}

TEST(SamplerTest, CyclesPerSampleMatchesPeriodAndFrequency) {
  CpuProfiler profiler(SimTime::Micros(500), 2e9, Rng(5));
  EXPECT_DOUBLE_EQ(profiler.CyclesPerSample(), 1e6);
  profiler.RecordActivity(profiler.InternSymbol("f"), SimTime::Millis(5),
                          FlatProfile());
  const SymbolSamples row = RowsByName(profiler)["f"];
  ASSERT_GT(row.samples, 0u);
  EXPECT_EQ(row.counters.cycles(), row.samples * 1000000u);
}

TEST(SamplerTest, SymbolsInterned) {
  CpuProfiler profiler(SimTime::Micros(10), 3e9, Rng(6));
  const NameId alpha = profiler.InternSymbol("alpha");
  const NameId beta = profiler.InternSymbol("beta");
  EXPECT_NE(alpha, beta);
  EXPECT_EQ(profiler.InternSymbol("alpha"), alpha);
  profiler.RecordActivity(alpha, SimTime::Millis(1), FlatProfile());
  profiler.RecordActivity(beta, SimTime::Millis(1), FlatProfile());
  profiler.RecordActivity(alpha, SimTime::Millis(1), FlatProfile());
  std::map<std::string, SymbolSamples> rows = RowsByName(profiler);
  ASSERT_EQ(rows.size(), 2u);
  // 1 ms at a 10 us period is 100 samples per activity (+-1).
  EXPECT_NEAR(static_cast<double>(rows["alpha"].samples), 200.0, 2.0);
  EXPECT_NEAR(static_cast<double>(rows["beta"].samples), 100.0, 1.0);
  EXPECT_EQ(rows["alpha"].samples + rows["beta"].samples,
            profiler.samples().size());
}

TEST(SamplerTest, FoldedStateDoesNotGrowWithSamples) {
  CpuProfiler profiler(SimTime::Micros(10), 3e9, Rng(8));
  const NameId f = profiler.InternSymbol("f");
  profiler.RecordActivity(f, SimTime::Millis(1), FlatProfile());
  const size_t bytes = profiler.memory_bytes();
  for (int i = 0; i < 100; ++i) {
    profiler.RecordActivity(f, SimTime::Millis(1), FlatProfile());
  }
  EXPECT_GT(profiler.samples().size(), 10000u);
  EXPECT_EQ(profiler.memory_bytes(), bytes);
}

TEST(SamplerTest, TotalCpuTimeAccumulates) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(7));
  profiler.RecordActivity(profiler.InternSymbol("f"), SimTime::Millis(2),
                          FlatProfile());
  profiler.RecordActivity(profiler.InternSymbol("g"), SimTime::Millis(3),
                          FlatProfile());
  EXPECT_EQ(profiler.total_cpu_time(), SimTime::Millis(5));
  EXPECT_EQ(profiler.activities_recorded(), 2u);
}

// Checked in every build: a zero period would make each activity's
// sample count infinite, and converting it to an integer is undefined.
TEST(SamplerDeathTest, AbortsUnlessPeriodAndFrequencyArePositiveAndFinite) {
  EXPECT_DEATH(CpuProfiler(SimTime::Zero(), 3e9, Rng(9)),
               "sample period is 0 ns");
  EXPECT_DEATH(CpuProfiler(SimTime::Nanos(-1), 3e9, Rng(9)),
               "sample period is -1 ns");
  // 2^63 ns at 3 GHz is about 2.8e19 cycles per sample, past 2^64.
  EXPECT_DEATH(CpuProfiler(SimTime::Max(), 3e9, Rng(9)),
               "sample period is 9223372036854775807 ns");
  EXPECT_DEATH(CpuProfiler(SimTime::Micros(100), 0.0, Rng(9)),
               "frequency 0 Hz");
  EXPECT_DEATH(CpuProfiler(SimTime::Micros(100),
                           std::numeric_limits<double>::infinity(), Rng(9)),
               "frequency inf Hz");
  EXPECT_DEATH(CpuProfiler(SimTime::Micros(100), std::nan(""), Rng(9)),
               "frequency -?nan Hz");
}

}  // namespace
}  // namespace hyperprof::profiling
