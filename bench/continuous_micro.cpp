// Microbenchmark of the continuous-profiling path: windowed Observe
// throughput, the per-window cost of the shard merge barrier, flamegraph
// and pprof export bandwidth, and the zero-steady-state-allocation
// contract. Tracked across PRs via BENCH_continuous.json.
//
// The workloads mirror how the fleet drives the module: Observe is called
// once per sampled query finish with an integer-nanosecond attributed
// breakdown; the merge barrier combines per-worker deferred profilers into
// a fresh aggregator (construction included — that is what FinalizePlatform
// pays); the exporters walk retained traces.
//
// Usage: continuous_micro [out.json] [smoke]

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
#include "profiling/continuous.h"
#include "profiling/trace_export.h"
#include "profiling/tracer.h"

// Counting allocator shim: steady-state allocations are a tracked metric,
// not just throughput.
#include "testing/counting_new.h"

using namespace hyperprof;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/** Best-of-N wall time for `body`, which returns its op count. */
template <typename Body>
double MeasureSeconds(int repeats, uint64_t* ops, Body body) {
  double best = 0;
  for (int pass = 0; pass < repeats; ++pass) {
    auto begin = Clock::now();
    *ops = body();
    double elapsed = Seconds(begin, Clock::now());
    if (pass == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

profiling::ContinuousOptions BenchOptions() {
  profiling::ContinuousOptions options;
  options.window = SimTime::Millis(1);  // narrow: maximize seal traffic
  options.history_size = 128;
  options.budget[static_cast<size_t>(profiling::WindowCategory::kCpu)] =
      SimTime::Micros(500);
  return options;
}

/** One synthetic observation: ~3us apart, jittered attributed split. */
void ObserveOne(profiling::ContinuousProfiler& profiler, Rng& jitter,
                int64_t& now_us) {
  profiling::AttributedTime attributed;
  attributed.cpu = 1e-6 * static_cast<double>(10 + jitter.NextBounded(40));
  attributed.io = 1e-6 * static_cast<double>(jitter.NextBounded(30));
  attributed.remote = 1e-6 * static_cast<double>(jitter.NextBounded(20));
  profiler.Observe(SimTime::Micros(now_us),
                   SimTime::Micros(60 + static_cast<int64_t>(
                                            jitter.NextBounded(50))),
                   attributed);
  now_us += 3;
}

/**
 * Windowed ingest: n observations crossing a window boundary every ~333
 * queries, so seal, budget evaluation, and ring reuse all run in-loop.
 * Returns windows sealed (the JSON tracks windows/sec alongside queries).
 */
uint64_t ObserveThroughput(uint64_t n, double* seconds, int repeats) {
  uint64_t windows = 0;
  *seconds = MeasureSeconds(repeats, &windows, [n] {
    profiling::ContinuousProfiler profiler(BenchOptions());
    Rng jitter(7);
    int64_t now_us = 0;
    for (uint64_t i = 0; i < n; ++i) ObserveOne(profiler, jitter, now_us);
    profiler.Finalize();
    uint64_t evaluated = 0;
    for (size_t c = 0; c < profiling::kNumWindowCategories; ++c) {
      evaluated = profiler
                      .budget_stat(static_cast<profiling::WindowCategory>(c))
                      .windows_evaluated;
    }
    return evaluated;
  });
  return windows;
}

/**
 * The finalize barrier: construct a merged aggregator, fold in `workers`
 * deferred shard profilers, evaluate. Cost is reported per merged window —
 * the unit the fleet's per-platform barrier scales in.
 */
uint64_t MergeBarrier(int workers, uint64_t queries_per_worker,
                      double* seconds, int repeats) {
  std::vector<profiling::ContinuousProfiler> shards;
  profiling::ContinuousOptions worker_options = BenchOptions();
  worker_options.defer_evaluation = true;
  shards.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    shards.emplace_back(worker_options);
    Rng jitter(100 + static_cast<uint64_t>(w));
    int64_t now_us = w;  // staggered, same window span
    for (uint64_t i = 0; i < queries_per_worker; ++i) {
      ObserveOne(shards.back(), jitter, now_us);
    }
  }
  uint64_t merged_windows = 0;
  *seconds = MeasureSeconds(repeats, &merged_windows, [&shards] {
    profiling::ContinuousProfiler merged(BenchOptions());
    for (const auto& shard : shards) merged.MergeFrom(shard);
    merged.Finalize();
    return static_cast<uint64_t>(shards.size()) *
           static_cast<uint64_t>(merged.WindowsInHistory());
  });
  return merged_windows;
}

/** Retained traces with a parent chain, the exporters' input shape. */
std::vector<profiling::QueryTrace> BuildTraces(profiling::NameInterner& names,
                                               size_t count) {
  std::vector<profiling::QueryTrace> traces;
  traces.reserve(count);
  profiling::NameId platform = names.Intern("BenchPlatform");
  profiling::NameId types[4] = {names.Intern("point_read"),
                                names.Intern("scan"), names.Intern("write"),
                                names.Intern("mixed")};
  profiling::NameId spans[4] = {names.Intern("compute"),
                                names.Intern("dfs.read"),
                                names.Intern("dfs.write"),
                                names.Intern("consensus")};
  for (size_t i = 0; i < count; ++i) {
    profiling::QueryTrace trace;
    trace.trace_id = i + 1;
    trace.platform = platform;
    trace.query_type = types[i % 4];
    trace.start = SimTime::Micros(static_cast<int64_t>(i) * 100);
    trace.end = trace.start + SimTime::Micros(90);
    for (uint64_t s = 0; s < 6; ++s) {
      profiling::Span span;
      span.span_id = s + 1;
      span.parent_id = s >= 3 ? s - 2 : 0;  // two-level chains
      span.kind = static_cast<profiling::SpanKind>(s % 3);
      span.name = spans[s % 4];
      span.start = trace.start + SimTime::Micros(static_cast<int64_t>(s) * 12);
      span.end = span.start + SimTime::Micros(10);
      trace.spans.push_back(span);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

/**
 * Steady-state heap traffic through the windowed path: warm one window
 * span, then count allocations over a further observation block (crossing
 * many seals and evictions). The contract is exactly zero.
 */
uint64_t SteadyStateAllocations(uint64_t queries) {
  profiling::ContinuousOptions options = BenchOptions();
  options.history_size = 16;  // wraps during the measured block
  profiling::ContinuousProfiler profiler(options);
  Rng jitter(99);
  int64_t now_us = 0;
  for (uint64_t i = 0; i < 2000; ++i) ObserveOne(profiler, jitter, now_us);
  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < queries; ++i) ObserveOne(profiler, jitter, now_us);
  double q = profiler.RollingQuantile(profiling::WindowCategory::kLatency,
                                      0.99);
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  if (q < 0) std::abort();  // defeat over-optimization
  return after - before;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_continuous.json";
  bool smoke = argc > 2 && std::strcmp(argv[2], "smoke") == 0;
  const uint64_t n = smoke ? 50'000 : 500'000;
  const int repeats = smoke ? 1 : 3;
  const uint64_t alloc_queries = smoke ? 10'000 : 50'000;
  const size_t export_traces = smoke ? 500 : 2000;
  const int export_rounds = smoke ? 5 : 20;

  std::printf("=== Continuous Profiling Microbenchmark ===\n");
  std::printf("%llu observations per workload, best of %d passes.\n\n",
              static_cast<unsigned long long>(n), repeats);

  double observe_seconds = 0;
  uint64_t windows = ObserveThroughput(n, &observe_seconds, repeats);
  double queries_per_sec =
      observe_seconds > 0 ? static_cast<double>(n) / observe_seconds : 0;
  double windows_per_sec =
      observe_seconds > 0 ? static_cast<double>(windows) / observe_seconds : 0;

  double merge_seconds = 0;
  uint64_t merged_windows =
      MergeBarrier(/*workers=*/8, /*queries_per_worker=*/n / 8,
                   &merge_seconds, repeats);
  double merge_ns_per_window =
      merged_windows > 0 ? merge_seconds * 1e9 /
                               static_cast<double>(merged_windows)
                         : 0;

  profiling::NameInterner names;
  std::vector<profiling::QueryTrace> traces =
      BuildTraces(names, export_traces);
  uint64_t folded_bytes = 0;
  double folded_seconds =
      MeasureSeconds(repeats, &folded_bytes, [&traces, &names,
                                              export_rounds] {
        uint64_t bytes = 0;
        for (int i = 0; i < export_rounds; ++i) {
          bytes += profiling::ExportCollapsedStacks(traces, names).size();
        }
        return bytes;
      });
  double folded_mb_per_sec =
      folded_seconds > 0
          ? static_cast<double>(folded_bytes) / folded_seconds / 1e6
          : 0;
  uint64_t pprof_bytes = 0;
  double pprof_seconds =
      MeasureSeconds(repeats, &pprof_bytes, [&traces, &names,
                                             export_rounds] {
        uint64_t bytes = 0;
        for (int i = 0; i < export_rounds; ++i) {
          bytes +=
              profiling::ExportPprofProfile(traces, names, 1).size();
        }
        return bytes;
      });
  double pprof_mb_per_sec =
      pprof_seconds > 0
          ? static_cast<double>(pprof_bytes) / pprof_seconds / 1e6
          : 0;

  uint64_t steady_allocs = SteadyStateAllocations(alloc_queries);

  TextTable table({"Metric", "Value"});
  table.AddRow({"observe queries/sec", StrFormat("%.0fK", queries_per_sec /
                                                              1e3)});
  table.AddRow({"windows sealed/sec", StrFormat("%.0f", windows_per_sec)});
  table.AddRow({"merge ns/window", StrFormat("%.0f", merge_ns_per_window)});
  table.AddRow({"folded export MB/s", StrFormat("%.1f", folded_mb_per_sec)});
  table.AddRow({"pprof export MB/s", StrFormat("%.1f", pprof_mb_per_sec)});
  table.AddRow({"steady-state allocs",
                StrFormat("%llu / %llu queries",
                          static_cast<unsigned long long>(steady_allocs),
                          static_cast<unsigned long long>(alloc_queries))});
  std::printf("%s\n", table.ToString().c_str());

  std::FILE* file = std::fopen(json_path, "w");
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(
      file,
      "{\n"
      "  \"benchmark\": \"continuous\",\n"
      "  \"observe_queries\": %llu,\n"
      "  \"observe_seconds\": %.6f,\n"
      "  \"queries_per_sec\": %.0f,\n"
      "  \"windows_per_sec\": %.0f,\n"
      "  \"merge_workers\": 8,\n"
      "  \"merge_windows\": %llu,\n"
      "  \"merge_ns_per_window\": %.1f,\n"
      "  \"folded_export_mb_per_sec\": %.2f,\n"
      "  \"pprof_export_mb_per_sec\": %.2f,\n"
      "  \"steady_state_allocations\": %llu,\n"
      "  \"steady_state_alloc_queries\": %llu\n"
      "}\n",
      static_cast<unsigned long long>(n), observe_seconds, queries_per_sec,
      windows_per_sec, static_cast<unsigned long long>(merged_windows),
      merge_ns_per_window, folded_mb_per_sec, pprof_mb_per_sec,
      static_cast<unsigned long long>(steady_allocs),
      static_cast<unsigned long long>(alloc_queries));
  std::fclose(file);
  std::printf("wrote %s\n", json_path);
  return steady_allocs == 0 ? 0 : 1;
}
