// Ablation: worker-CPU saturation. The paper's profiles come from
// provisioned production fleets; this bench shows what the same
// measurement pipeline reports when the worker pool saturates — queueing
// delay stretches end-to-end latency while the attributed CPU share stays
// flat, a failure mode a naive breakdown reader could misdiagnose.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/parallel_for.h"
#include "common/strings.h"
#include "common/table.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "profiling/aggregate.h"

using namespace hyperprof;

namespace {

struct RunOutcome {
  double utilization = 0;
  double mean_queue_wait_us = 0;
  double mean_latency_ms = 0;
  profiling::AttributedTime mean_fractions;
};

RunOutcome RunAtCores(uint32_t cores, double qps) {
  platforms::FleetConfig config;
  config.queries_per_platform = 4000;
  config.arrival_rate_qps = qps;
  config.trace_sample_one_in = 5;
  // The sweep owns the host threads; each point runs its fleet serially.
  config.parallelism = 1;
  platforms::FleetSimulation fleet(config);
  platforms::PlatformSpec spec = platforms::SpannerSpec();
  spec.worker_cores = cores;
  fleet.AddPlatform(spec);
  fleet.RunAll();

  RunOutcome outcome;
  auto result = fleet.Result(0);
  outcome.mean_fractions = result.e2e.overall.MeanQueryFractions();
  const auto& traces = fleet.TracesOf(0);
  double latency = 0;
  for (const auto& trace : traces) {
    latency += (trace.end - trace.start).ToSeconds();
  }
  outcome.mean_latency_ms =
      traces.empty() ? 0 : latency / static_cast<double>(traces.size()) * 1e3;
  return outcome;
}

void PrintAblation() {
  std::printf("=== Ablation: Worker-Pool Saturation ===\n");
  std::printf("Spanner at 2,000 qps (~5.5 concurrent compute-seconds per "
              "second of demand) with shrinking worker pools. Queueing "
              "stretches latency; the attributed shares barely move "
              "because queue wait is invisible to span attribution.\n\n");
  TextTable table({"Cores", "Mean latency", "CPU%", "IO%", "Remote%"});
  std::vector<uint32_t> core_counts = {0, 32, 12, 8, 6};
  std::vector<RunOutcome> outcomes(core_counts.size());
  ParallelFor(core_counts.size(), /*parallelism=*/0, [&](size_t i) {
    outcomes[i] = RunAtCores(core_counts[i], 2000);
  });
  for (size_t i = 0; i < core_counts.size(); ++i) {
    const RunOutcome& outcome = outcomes[i];
    table.AddRow({core_counts[i] == 0 ? "unlimited"
                                      : StrFormat("%u", core_counts[i]),
                  StrFormat("%.2f ms", outcome.mean_latency_ms),
                  StrFormat("%.1f", outcome.mean_fractions.cpu * 100),
                  StrFormat("%.1f", outcome.mean_fractions.io * 100),
                  StrFormat("%.1f", outcome.mean_fractions.remote * 100)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void BM_SaturatedFleetRun(benchmark::State& state) {
  for (auto _ : state) {
    platforms::FleetConfig config;
    config.queries_per_platform = 500;
    platforms::FleetSimulation fleet(config);
    platforms::PlatformSpec spec = platforms::SpannerSpec();
    spec.worker_cores = static_cast<uint32_t>(state.range(0));
    fleet.AddPlatform(spec);
    fleet.RunAll();
    benchmark::DoNotOptimize(fleet.Result(0).queries_completed);
  }
}
BENCHMARK(BM_SaturatedFleetRun)->Arg(0)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
