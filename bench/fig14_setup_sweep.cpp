// Figure 14 reproduction: effect of per-invocation accelerator setup time
// on end-to-end speedup (8x per-accelerator speedup) under the four design
// points. Speedups are the query-share-weighted mean over the Figure 2
// groups; remote work and IO are kept.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_fleet.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/limit_studies.h"
#include "core/platform_inputs.h"

using namespace hyperprof;
using bench::GetFleet;

namespace {

double OffloadBytesFor(size_t platform) {
  return platform == bench::kBigQuery ? 64.0 * (1 << 20) : 32.0 * (1 << 10);
}

double Evaluate(const model::GroupWorkloads& groups,
                model::AccelSystemConfig config, double setup,
                double offload_bytes) {
  config.setup_time = setup;
  return model::GroupWeightedSpeedup(
      groups, [&](const model::Workload& base) {
        model::Workload workload = base;
        model::ApplyConfig(workload, config, offload_bytes);
        for (auto& component : workload.components) {
          component.speedup = 8.0;
        }
        return model::AccelModel(workload).Speedup();
      });
}

void PrintFig14() {
  std::printf("=== Figure 14: Setup Time Sweep (s=8x) ===\n");
  std::printf(
      "Paper anchors: synchronous configurations degrade sharply as setup "
      "grows (the penalty recurs per accelerator invocation); asynchronous "
      "and chained execution amortize it; off-chip BigQuery is penalized "
      "by data copies before setup even matters.\n\n");
  const model::AccelSystemConfig configs[] = {
      model::AccelSystemConfig::SyncOffChip(),
      model::AccelSystemConfig::SyncOnChip(),
      model::AccelSystemConfig::AsyncOnChip(),
      model::AccelSystemConfig::ChainedOnChip()};
  std::vector<double> setups = {0,    1e-8, 1e-7, 1e-6,
                                1e-5, 1e-4, 1e-3, 1e-2};
  for (size_t p = 0; p < 3; ++p) {
    auto result = GetFleet().Result(p);
    auto groups = model::BuildGroupWorkloads(
        result, GetFleet().TracesOf(p),
        model::AcceleratedCategoriesFor(result.name));
    double offload = OffloadBytesFor(p);
    std::printf("--- %s ---\n", result.name.c_str());
    TextTable table({"Setup time", "Sync+OffChip", "Sync+OnChip",
                     "Async+OnChip", "Chained+OnChip"});
    for (double setup : setups) {
      std::vector<double> row;
      for (const auto& config : configs) {
        row.push_back(Evaluate(groups, config, setup, offload));
      }
      table.AddRow(HumanSeconds(setup), row, "%.3f");
    }
    std::printf("%s\n", table.ToString().c_str());
  }
}

void BM_SetupTimeSweep(benchmark::State& state) {
  auto result = GetFleet().Result(bench::kBigTable);
  auto groups = model::BuildGroupWorkloads(
      result, GetFleet().TracesOf(bench::kBigTable),
      model::AcceleratedCategoriesFor("BigTable"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Evaluate(
        groups, model::AccelSystemConfig::SyncOnChip(), 1e-5, 32 << 10));
  }
}
BENCHMARK(BM_SetupTimeSweep);

}  // namespace

int main(int argc, char** argv) {
  PrintFig14();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
