// Microbenchmarks of the real compute kernels that the figure benches and
// the serving path run: wire format, SHA3, LZ codec, CRC32C, relational
// operators and allocators. Not tied to a specific paper figure; used to
// ground the cost models.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "common/cpu.h"
#include "common/rng.h"
#include "workloads/arena.h"
#include "workloads/checksum.h"
#include "workloads/compression.h"
#include "workloads/protowire/synthetic.h"
#include "workloads/relational.h"
#include "workloads/sha3.h"

using namespace hyperprof;

namespace {

// --- Protowire ---

void BM_VarintEncode(benchmark::State& state) {
  protowire::WireBuffer out;
  Rng rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& value : values) value = rng.Next() >> rng.NextBounded(60);
  for (auto _ : state) {
    out.clear();
    for (uint64_t value : values) protowire::PutVarint(out, value);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  protowire::WireBuffer buffer;
  Rng rng(2);
  for (int i = 0; i < 1024; ++i) {
    protowire::PutVarint(buffer, rng.Next() >> rng.NextBounded(60));
  }
  for (auto _ : state) {
    protowire::WireReader reader(buffer);
    uint64_t value;
    while (reader.GetVarint(&value)) benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_VarintDecode);

void BM_MessageRoundTrip(benchmark::State& state) {
  Rng rng(3);
  protowire::SchemaPool pool;
  protowire::SyntheticSchemaParams params;
  const auto* descriptor = protowire::GenerateSchema(pool, params, rng);
  auto message = protowire::GenerateMessage(descriptor, params, rng);
  for (auto _ : state) {
    auto wire = message->Serialize();
    benchmark::DoNotOptimize(
        protowire::Message::Parse(descriptor, wire.data(), wire.size()));
  }
}
BENCHMARK(BM_MessageRoundTrip);

// --- Crypto / checksum ---

void BM_Sha3Throughput(benchmark::State& state) {
  std::vector<uint8_t> input(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::Sha3_256::Hash(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha3Throughput)->Range(256, 1 << 20);

void BM_Crc32cThroughput(benchmark::State& state) {
  std::vector<uint8_t> input(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::Crc32c(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cThroughput)->Range(256, 1 << 20);

// Pins the dispatch policy for one benchmark run so the portable
// slicing-by-8 path and the hardware crc32-instruction path can be read
// side by side. Second range arg: 0 = portable, 1 = native.
void BM_Crc32cDispatch(benchmark::State& state) {
  KernelDispatch mode = state.range(1) != 0 ? KernelDispatch::kNative
                                            : KernelDispatch::kPortable;
  SetKernelDispatchForTest(mode);
  std::vector<uint8_t> input(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::Crc32c(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(KernelDispatchName(mode));
  SetKernelDispatchForTest(std::nullopt);
}
BENCHMARK(BM_Crc32cDispatch)
    ->Args({1 << 12, 0})
    ->Args({1 << 12, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

// Incremental interface fed storage-block-sized chunks; should track the
// one-shot numbers (the stream carries 4 bytes of state between chunks).
void BM_Crc32cStream(benchmark::State& state) {
  std::vector<uint8_t> input(1 << 20, 0xa5);
  size_t chunk = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    workloads::Crc32cStream stream;
    for (size_t pos = 0; pos < input.size(); pos += chunk) {
      stream.Update(input.data() + pos, std::min(chunk, input.size() - pos));
    }
    benchmark::DoNotOptimize(stream.value());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Crc32cStream)->Arg(512)->Arg(64 << 10);

// --- Compression ---

void BM_CompressByEntropy(benchmark::State& state) {
  Rng rng(4);
  double entropy = static_cast<double>(state.range(0)) / 100.0;
  auto input = workloads::GenerateCompressibleBuffer(1 << 18, entropy, rng);
  size_t compressed_size = 0;
  for (auto _ : state) {
    auto compressed = workloads::LzCodec::Compress(input);
    compressed_size = compressed.size();
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (1 << 18));
  state.counters["ratio"] =
      static_cast<double>(compressed_size) / (1 << 18);
}
BENCHMARK(BM_CompressByEntropy)->Arg(0)->Arg(40)->Arg(100);

// --- Relational ---

void BM_ScanFilter(benchmark::State& state) {
  Rng rng(5);
  auto table = relational::GenerateTable(
      static_cast<size_t>(state.range(0)), 1, 1000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::Filter(
        table.column(1), relational::Predicate::kGreater, 500000));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScanFilter)->Range(1 << 12, 1 << 20);

void BM_HashVsSortAggregate(benchmark::State& state) {
  Rng rng(6);
  auto table = relational::GenerateTable(1 << 16, 1,
                                         static_cast<size_t>(state.range(0)),
                                         rng);
  bool use_sort = state.range(1) != 0;
  for (auto _ : state) {
    if (use_sort) {
      benchmark::DoNotOptimize(
          relational::SortAggregate(table, 0, 1, relational::AggOp::kSum));
    } else {
      benchmark::DoNotOptimize(
          relational::HashAggregate(table, 0, 1, relational::AggOp::kSum));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_HashVsSortAggregate)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1});

void BM_Materialize(benchmark::State& state) {
  Rng rng(7);
  auto table = relational::GenerateTable(1 << 16, 3, 1000, rng);
  auto selection = relational::Filter(table.column(0),
                                      relational::Predicate::kLess, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        relational::Materialize(table, selection, {0, 1, 2, 3}));
  }
}
BENCHMARK(BM_Materialize);

// --- Allocation ---

void BM_MallocVsArena(benchmark::State& state) {
  Rng rng(8);
  bool use_arena = state.range(0) != 0;
  for (auto _ : state) {
    if (use_arena) {
      benchmark::DoNotOptimize(workloads::ArenaStress(1024, rng));
    } else {
      benchmark::DoNotOptimize(workloads::MallocStress(1024, rng));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_MallocVsArena)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
