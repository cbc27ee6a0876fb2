// Ablation: the paper samples one-thousandth of queries for its Dapper
// traces. This bench sweeps the trace sampling rate and reports the
// recovery error of the overall breakdown versus a fully-traced baseline —
// how much statistical power the 1/N choice buys or costs.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "common/parallel_for.h"
#include "common/strings.h"
#include "common/table.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "profiling/aggregate.h"

using namespace hyperprof;

namespace {

struct SamplingOutcome {
  uint64_t sampled = 0;
  profiling::AttributedTime mean;
};

SamplingOutcome RunWithSampling(uint32_t one_in) {
  platforms::FleetConfig config;
  config.queries_per_platform = 6000;
  config.trace_sample_one_in = one_in;
  // The sweep owns the host threads; each point runs its fleet serially.
  config.parallelism = 1;
  platforms::FleetSimulation fleet(config);
  fleet.AddPlatform(platforms::SpannerSpec());
  fleet.RunAll();
  auto result = fleet.Result(0);
  return {result.queries_sampled, result.e2e.overall.MeanQueryFractions()};
}

void PrintAblation() {
  std::printf("=== Ablation: Trace Sampling Rate ===\n");
  std::printf("Spanner overall breakdown recovered at different Dapper "
              "sampling rates (6,000 queries; baseline traces all of "
              "them).\n\n");
  std::vector<uint32_t> rates = {1, 5, 20, 100, 500, 1000};
  std::vector<SamplingOutcome> outcomes(rates.size());
  ParallelFor(rates.size(), /*parallelism=*/0,
              [&](size_t i) { outcomes[i] = RunWithSampling(rates[i]); });
  const auto& baseline = outcomes.front().mean;  // rates[0] == 1/1
  TextTable table({"Sampling", "Traced queries", "CPU%", "IO%", "Remote%",
                   "L1 error vs full"});
  for (size_t i = 0; i < rates.size(); ++i) {
    const auto& mean = outcomes[i].mean;
    double l1 = std::abs(mean.cpu - baseline.cpu) +
                std::abs(mean.io - baseline.io) +
                std::abs(mean.remote - baseline.remote);
    table.AddRow(StrFormat("1/%u", rates[i]),
                 {static_cast<double>(outcomes[i].sampled), mean.cpu * 100,
                  mean.io * 100, mean.remote * 100, l1 * 100},
                 "%.1f");
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nAt production volumes (millions of queries/day) 1/1000 retains\n"
      "thousands of traces; at simulation scale sparse sampling shows the\n"
      "variance the paper's methodology accepts.\n\n");
}

void BM_FleetRunSampled(benchmark::State& state) {
  for (auto _ : state) {
    platforms::FleetConfig config;
    config.queries_per_platform = 1000;
    config.trace_sample_one_in =
        static_cast<uint32_t>(state.range(0));
    platforms::FleetSimulation fleet(config);
    fleet.AddPlatform(platforms::SpannerSpec());
    fleet.RunAll();
    benchmark::DoNotOptimize(fleet.Result(0).queries_completed);
  }
}
BENCHMARK(BM_FleetRunSampled)->Arg(1)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
