// Ablation: chaining granularity on the SoC. The paper's chained model
// (Eq. 10) bounds the chain by the largest penalty plus the largest
// no-penalty stage; this bench shows where that bound is tight (batch-
// granularity handoff) and where real pipelines beat it (per-message
// streaming with setup hidden under other work).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "common/parallel_for.h"
#include "common/strings.h"
#include "common/table.h"
#include "soc/chained_soc.h"

using namespace hyperprof;

namespace {

void PrintAblation() {
  std::printf("=== Ablation: Chaining Granularity vs the Eq. 10 Bound "
              "===\n");
  std::printf("Sweep of setup-overlap (how much of the serializer's setup "
              "a runtime hides under input preparation) and batch size; "
              "model error is |measured - modeled| / modeled.\n\n");
  TextTable table({"Messages", "Setup overlap", "Measured", "Modeled",
                   "Model diff%"});
  // Flatten the (count, overlap) grid; every cell is an independent SoC
  // simulation seeded from its own point, so the sweep parallelizes.
  struct GridPoint {
    size_t count = 0;
    double overlap = 0;
  };
  std::vector<GridPoint> grid;
  for (size_t count : {50u, 200u, 1000u}) {
    for (double overlap : {0.0, 0.25, 0.75}) {
      grid.push_back({count, overlap});
    }
  }
  std::vector<std::vector<std::string>> rows(grid.size());
  ParallelFor(grid.size(), /*parallelism=*/0, [&](size_t i) {
    const GridPoint& point = grid[i];
    Rng rng(17);
    soc::MessageBatch batch =
        soc::MessageBatch::Synthetic(point.count, 2048, rng);
    soc::SocConfig config =
        soc::SocConfig::CalibratedTo(batch.TotalBytes(), batch.size());
    config.setup_overlap_fraction = point.overlap;
    soc::ChainedSocSim sim(config);
    auto unaccel = sim.RunUnaccelerated(batch);
    auto chained = sim.RunChained(batch);
    double modeled = sim.ModeledChained(unaccel);
    double measured = chained.total.ToSeconds();
    rows[i] = {StrFormat("%zu", point.count),
               StrFormat("%.0f%%", point.overlap * 100),
               HumanSeconds(measured), HumanSeconds(modeled),
               StrFormat("%.1f%%",
                         100.0 * std::fabs(measured - modeled) / modeled)};
  });
  for (const auto& row : rows) table.AddRow(row);
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nWith no setup overlap the pipeline matches the model's serial\n"
      "penalty assumption (small diff); hiding setup under preparation —\n"
      "what the measured RTL system did — is exactly the behaviour the\n"
      "model's Eq. 10 bound cannot express, producing the Table 8 gap.\n\n");
}

void BM_ChainedAtGranularity(benchmark::State& state) {
  Rng rng(19);
  soc::MessageBatch batch = soc::MessageBatch::Synthetic(
      static_cast<size_t>(state.range(0)), 2048, rng);
  soc::SocConfig config =
      soc::SocConfig::CalibratedTo(batch.TotalBytes(), batch.size());
  soc::ChainedSocSim sim(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunChained(batch));
  }
}
BENCHMARK(BM_ChainedAtGranularity)->Arg(50)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  PrintAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
