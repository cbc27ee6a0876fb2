// perfbench: the repository benchmark.
//
//   perfbench --workload <fleet_fused|fleet_sharded|serve_spanner>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics and the tracing overhead.
// The last line of stdout is the JSON result; the exit code is 0 only
// when every correctness check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using perfbench::RunArgs;
using perfbench::RunReport;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run prints all metrics of its kind; those a workload does not
// exercise read 0. Kept in step with BENCHMARK.json (run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"queries_per_s", "1/s"},
    {"cpu_us_per_query", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"platforms.add_platform_s", "s"},
    {"storage.prewarm_s", "s"},
    {"storage.prewarm_blocks", "count"},
    {"storage.cache_entries", "count"},
    {"mem.rss_setup_mb", "MB"},
    {"platforms.run_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_query", "count"},
    {"sim.ns_per_event", "ns"},
    {"common.parallel_efficiency", "ratio"},
    {"sim.shard.epochs_per_query", "count"},
    {"sim.shard.coalesced_ratio", "ratio"},
    {"sim.shard.messages_per_query", "count"},
    {"sim.shard.exchange_allocs", "count"},
    {"platforms.finish_s", "s"},
    {"profiling.report_s", "s"},
    {"core.model_s", "s"},
    {"profiling.export_s", "s"},
    {"profiling.export_mb", "MB"},
    {"mem.kernel_mb", "MB"},
    {"mem.tracer_mb", "MB"},
    {"mem.profiler_mb", "MB"},
    {"mem.bytes_per_served_query", "B"},
    {"serve.codec_us_per_query", "us"},
    {"serve.admit_us_per_query", "us"},
    {"serve.pump_us_per_query", "us"},
    {"serve.loop_us_per_query", "us"},
    {"serve.stats_cpu_us_per_req", "us"},
    {"serve.qps_at_slo", "1/s"},
    {"serve.pump_p99_ms", "ms"},
    {"serve.pump_max_ms", "ms"},
    {"serve.pump_samples", "count"},
    {"serve.fixed_p50_ms", "ms"},
    {"serve.fixed_p99_ms", "ms"},
    {"serve.fixed_samples", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.outstanding_max", "count"},
    {"serve.events_per_query", "count"},
    {"serve.steady_allocs", "count"},
    {"serve.protocol_errors", "count"},
    {"serve.dropped_responses", "count"},
    {"net.rpc_calls_per_query", "count"},
    {"net.retries", "count"},
    {"net.timeouts", "count"},
    {"storage.reads_per_query", "count"},
    {"storage.writes_per_query", "count"},
    {"storage.ram_hit_ratio", "ratio"},
    {"storage.ssd_hit_ratio", "ratio"},
    {"profiling.queries_sampled", "count"},
    {"profiling.cpu_samples", "count"},
    {"sim.shard.epochs", "count"},
    {"sim.shard.late_deliveries", "count"},
    {"trace.overhead_setup_s", "s"},
    {"trace.overhead_queries_per_s", "1/s"},
    {"trace.overhead_cpu_us_per_query", "us"},
};

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  std::printf("%s\n", perfbench::ProvenanceLine().c_str());
  const std::string refusal = perfbench::TimingRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report timings from a %s\n",
                 refusal.c_str());
    return 3;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  RunReport report;
  if (args.workload == "fleet_fused") {
    perfbench::RunFleetWorkload(args, /*sharded=*/false, report);
  } else if (args.workload == "fleet_sharded") {
    perfbench::RunFleetWorkload(args, /*sharded=*/true, report);
  } else if (args.workload == "serve_spanner") {
    perfbench::RunServeWorkload(args, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Every metric of the run's kind, in table order; a missing end-to-end
  // metric or a value that is not finite fails the run.
  RunReport result;
  result.Attempt(report.attempted());
  result.Fail(report.failed(), "failed operations and checks (see above)");
  const MetricSpec* begin =
      args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    const double value = report.Get(spec->name);
    result.Check(std::isfinite(value),
                 std::string(spec->name) + " is not finite");
    if (!args.trace) {
      result.Check(value > 0, std::string(spec->name) + " was not measured");
    }
    result.Set(spec->name, value, spec->unit);
  }
  result.PrintTable();
  std::printf("%s\n", result.Json().c_str());
  return result.correct() ? 0 : 1;
}
