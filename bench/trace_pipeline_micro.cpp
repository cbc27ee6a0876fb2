// Microbenchmark of the trace ingest pipeline: StartQuery/AddSpan/
// FinishQuery throughput with periodic breakdown reports, the hot loop
// under every fleet run. Tracked across PRs via BENCH_trace_pipeline.json.
//
// The workload mirrors the pre-interning baseline harness exactly — K
// traces in flight FIFO, six spans per query, four query types, a report
// every `report_every` queries — so traces/sec is directly comparable:
// the seed pipeline measured ~176K traces/s (k=64, reporting), ~115K
// (k=256) and ~448K ingest-only on this machine class.
//
// Usage: trace_pipeline_micro [out.json] [smoke]

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "profiling/aggregate.h"
#include "profiling/tracer.h"

// Counting allocator shim: the steady-state-allocations claim is part of
// what this benchmark tracks, not just throughput.
#include "testing/counting_new.h"

using namespace hyperprof;

namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  uint64_t traces = 0;
  double seconds = 0;
  double traces_per_sec = 0;
};

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

template <typename Body>
BenchResult Measure(const std::string& name, int repeats, Body body) {
  BenchResult result;
  result.name = name;
  for (int pass = 0; pass < repeats; ++pass) {
    auto begin = Clock::now();
    uint64_t traces = body();
    double elapsed = Seconds(begin, Clock::now());
    if (pass == 0 || elapsed < result.seconds) {
      result.seconds = elapsed;
      result.traces = traces;
    }
  }
  result.traces_per_sec =
      result.seconds > 0 ? static_cast<double>(result.traces) / result.seconds
                         : 0;
  return result;
}

// Pre-interned name set shared by all workloads.
struct InternedNames {
  profiling::NameId platform;
  profiling::NameId types[4];
  profiling::NameId spans[4];

  explicit InternedNames(profiling::NameInterner& names) {
    platform = names.Intern("BenchPlatform");
    const char* type_names[4] = {"point_read", "scan", "write", "mixed"};
    const char* span_names[4] = {"compute", "dfs.read", "dfs.write",
                                 "consensus"};
    for (int i = 0; i < 4; ++i) {
      types[i] = names.Intern(type_names[i]);
      spans[i] = names.Intern(span_names[i]);
    }
  }
};

/**
 * The fleet ingest shape: every query sampled, `k` traces in flight FIFO,
 * six spans each, and a breakdown report consumed every `report_every`
 * finished queries. With the streaming accumulator the report is a read,
 * not a re-attribution pass over every retained trace.
 */
uint64_t IngestWithReports(uint64_t n, size_t k, uint64_t report_every) {
  profiling::TracerOptions options;
  options.retention = profiling::TraceRetention::kSampleReservoir;
  options.reservoir_capacity = 256;
  profiling::Tracer tracer(1, Rng(7), options);
  InternedNames ids(tracer.names());
  Rng jitter(1234);

  std::vector<uint64_t> in_flight;
  in_flight.reserve(k);
  int64_t now_us = 0;
  uint64_t finished = 0;
  double checksum = 0;

  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = tracer.StartQuery(ids.platform, ids.types[i % 4],
                                    SimTime::Micros(now_us));
    for (int s = 0; s < 6; ++s) {
      int64_t start = now_us + s * 10;
      int64_t end =
          start + 8 + static_cast<int64_t>(jitter.NextBounded(5));
      tracer.AddSpan(id, static_cast<profiling::SpanKind>(s % 3),
                     ids.spans[s % 4], SimTime::Micros(start),
                     SimTime::Micros(end));
    }
    in_flight.push_back(id);
    if (in_flight.size() >= k) {
      tracer.FinishQuery(in_flight.front(), SimTime::Micros(now_us + 80));
      in_flight.erase(in_flight.begin());
      ++finished;
      if (finished % report_every == 0) {
        // Consume the streaming report the way a fleet monitor would.
        const auto& breakdown = tracer.breakdown();
        checksum += breakdown.e2e().overall.time.cpu;
        checksum += breakdown.EstimatedSyncFactor();
        checksum +=
            static_cast<double>(breakdown.TypeRows(tracer.names()).size());
      }
    }
    now_us += 3;
  }
  while (!in_flight.empty()) {
    tracer.FinishQuery(in_flight.front(), SimTime::Micros(now_us + 80));
    in_flight.erase(in_flight.begin());
    ++finished;
  }
  if (checksum < 0) std::abort();  // defeat over-optimization
  return finished;
}

/**
 * Steady-state heap traffic: warm the tracer on the workload shape, then
 * count allocations over a further block of queries. The interned/pooled
 * pipeline's contract is that this is exactly zero.
 */
uint64_t SteadyStateAllocations(uint64_t queries) {
  profiling::TracerOptions options;
  options.retention = profiling::TraceRetention::kSampleReservoir;
  options.reservoir_capacity = 256;
  profiling::Tracer tracer(1, Rng(7), options);
  InternedNames ids(tracer.names());
  Rng jitter(99);
  int64_t now_us = 0;
  auto pump = [&](uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t id = tracer.StartQuery(ids.platform, ids.types[i % 4],
                                      SimTime::Micros(now_us));
      for (int s = 0; s < 6; ++s) {
        int64_t start = now_us + s * 10;
        int64_t end =
            start + 8 + static_cast<int64_t>(jitter.NextBounded(5));
        tracer.AddSpan(id, static_cast<profiling::SpanKind>(s % 3),
                       ids.spans[s % 4], SimTime::Micros(start),
                       SimTime::Micros(end));
      }
      tracer.FinishQuery(id, SimTime::Micros(now_us + 80));
      now_us += 3;
    }
  };
  pump(2000);  // warm-up: reservoir full, pools at capacity
  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  pump(queries);
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  return after - before;
}

void WriteJson(const std::vector<BenchResult>& results,
               uint64_t steady_state_allocs, uint64_t alloc_queries,
               const char* path) {
  std::FILE* file = std::fopen(path, "w");
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(file,
               "{\n  \"benchmark\": \"trace_pipeline\",\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(file,
                 "    {\"name\": \"%s\", \"traces\": %llu, "
                 "\"seconds\": %.6f, \"traces_per_sec\": %.0f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.traces),
                 r.seconds, r.traces_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(file,
               "  ],\n  \"steady_state_allocations\": %llu,\n"
               "  \"steady_state_alloc_queries\": %llu\n}\n",
               static_cast<unsigned long long>(steady_state_allocs),
               static_cast<unsigned long long>(alloc_queries));
  std::fclose(file);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_trace_pipeline.json";
  bool smoke = argc > 2 && std::strcmp(argv[2], "smoke") == 0;
  const uint64_t n = smoke ? 20'000 : 200'000;
  const int repeats = smoke ? 1 : 3;
  const uint64_t alloc_queries = smoke ? 10'000 : 50'000;

  std::printf("=== Trace Pipeline Microbenchmark ===\n");
  std::printf("%llu queries per workload, best of %d passes.\n\n",
              static_cast<unsigned long long>(n), repeats);

  std::vector<BenchResult> results;
  results.push_back(Measure("ingest_report_k64", repeats, [n] {
    return IngestWithReports(n, 64, 20'000);
  }));
  results.push_back(Measure("ingest_report_k256", repeats, [n] {
    return IngestWithReports(n, 256, 20'000);
  }));
  results.push_back(Measure("ingest_only", repeats, [n] {
    return IngestWithReports(n, 64, n + 1);
  }));

  uint64_t steady_allocs = SteadyStateAllocations(alloc_queries);

  TextTable table({"Workload", "Traces", "Seconds", "Traces/sec"});
  for (const BenchResult& r : results) {
    table.AddRow({r.name,
                  StrFormat("%llu", static_cast<unsigned long long>(r.traces)),
                  StrFormat("%.4f", r.seconds),
                  StrFormat("%.0fK", r.traces_per_sec / 1e3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("steady-state allocations: %llu over %llu queries\n\n",
              static_cast<unsigned long long>(steady_allocs),
              static_cast<unsigned long long>(alloc_queries));

  WriteJson(results, steady_allocs, alloc_queries, json_path);
  return steady_allocs == 0 ? 0 : 1;
}
