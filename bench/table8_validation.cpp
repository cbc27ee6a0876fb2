// Table 8 reproduction: chained-accelerator model validation.
//
//  Part 1 replays the paper's FireSim experiment on our event-driven SoC
//  simulator (protobuf-serialization accelerator chained into a SHA3
//  accelerator, calibrated to the published RTL measurements) and compares
//  measured chained execution against the analytical model (Eq. 9-12).
//  Part 2 validates with *real* kernels: actual wire-format serialization
//  chained into actual SHA3 hashing across two host threads.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "common/strings.h"
#include "common/table.h"
#include "soc/chained_soc.h"
#include "soc/host_pipeline.h"
#include "workloads/protowire/synthetic.h"
#include "workloads/sha3.h"

using namespace hyperprof;

namespace {

void PrintTable8() {
  std::printf("=== Table 8: Model Validation Results ===\n\n");

  Rng rng(7);
  soc::MessageBatch batch = soc::MessageBatch::Synthetic(200, 2048, rng);
  soc::SocConfig config =
      soc::SocConfig::CalibratedTo(batch.TotalBytes(), batch.size());
  soc::ChainedSocSim sim(config);
  auto unaccel = sim.RunUnaccelerated(batch);
  auto accel_sync = sim.RunAcceleratedSync(batch);
  auto chained = sim.RunChained(batch);
  double modeled = sim.ModeledChained(unaccel);
  double measured = chained.total.ToSeconds();

  std::printf("Part 1 — simulated SoC (paper values in parentheses):\n");
  TextTable table({"Quantity", "Reproduced", "Paper"});
  table.AddRow({"Proto. Ser. t_sub",
                HumanSeconds(unaccel.serialize_time.ToSeconds()),
                "518.3 us"});
  table.AddRow({"Proto. Ser. s_sub",
                StrFormat("%.0fx", config.serialize_speedup), "31x"});
  table.AddRow({"Proto. Ser. t_setup",
                HumanSeconds(config.serialize_setup.ToSeconds()),
                "1,488.9 us"});
  table.AddRow({"SHA3 t_sub", HumanSeconds(unaccel.hash_time.ToSeconds()),
                "1,112.5 us"});
  table.AddRow(
      {"SHA3 s_sub", StrFormat("%.1fx", config.hash_speedup), "51.3x"});
  table.AddRow({"SHA3 t_setup", HumanSeconds(config.hash_setup.ToSeconds()),
                "4.1 us"});
  table.AddRow({"Non-accel CPU t_sub",
                HumanSeconds(unaccel.init_time.ToSeconds()), "4,948.7 us"});
  table.AddRow({"Accelerated (sync) t'_e2e",
                HumanSeconds(accel_sync.total.ToSeconds()), "not reported"});
  table.AddRow({"Measured chained t'_e2e", HumanSeconds(measured),
                "6,075.7 us"});
  table.AddRow({"Modeled chained t'_e2e", HumanSeconds(modeled),
                "6,459.3 us"});
  table.AddRow({"Model difference",
                StrFormat("%.1f%%",
                          100.0 * std::fabs(modeled - measured) / modeled),
                "6.1%"});
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Part 2 — real kernels on this host (software chaining):\n");
  auto host = soc::RunHostValidation(200, /*seed=*/11);
  TextTable host_table({"Quantity", "Measured"});
  host_table.AddRow(
      {"Messages / wire bytes",
       StrFormat("%zu / %s", host.num_messages,
                 HumanBytes(static_cast<double>(host.total_wire_bytes))
                     .c_str())});
  host_table.AddRow(
      {"Serialize (serial)", HumanSeconds(host.serialize_seconds)});
  host_table.AddRow({"SHA3 (serial)", HumanSeconds(host.hash_seconds)});
  host_table.AddRow(
      {"Chained (measured)", HumanSeconds(host.chained_total_seconds)});
  host_table.AddRow(
      {"Chained (modeled)", HumanSeconds(host.modeled_chained_seconds)});
  host_table.AddRow({"Model error",
                     StrFormat("%.1f%%", host.ModelErrorFraction() * 100)});
  host_table.AddRow({"Outputs consistent",
                     host.digest_xor == 0 ? "yes" : "NO"});
  std::printf("%s\n", host_table.ToString().c_str());
}

void BM_SocChainedRun(benchmark::State& state) {
  Rng rng(7);
  soc::MessageBatch batch = soc::MessageBatch::Synthetic(
      static_cast<size_t>(state.range(0)), 2048, rng);
  soc::SocConfig config =
      soc::SocConfig::CalibratedTo(batch.TotalBytes(), batch.size());
  soc::ChainedSocSim sim(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunChained(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SocChainedRun)->Arg(200)->Arg(2000);

void BM_RealSerializeThenHash(benchmark::State& state) {
  Rng rng(13);
  protowire::SchemaPool pool;
  protowire::SyntheticSchemaParams params;
  const auto* descriptor = protowire::GenerateSchema(pool, params, rng);
  auto message = protowire::GenerateMessage(descriptor, params, rng);
  for (auto _ : state) {
    auto wire = message->Serialize();
    benchmark::DoNotOptimize(workloads::Sha3_256::Hash(wire));
  }
}
BENCHMARK(BM_RealSerializeThenHash);

}  // namespace

int main(int argc, char** argv) {
  PrintTable8();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
