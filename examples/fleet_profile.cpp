// Runs the full fleet characterization — three simulated platforms over
// the discrete-event substrate — and prints the recovered end-to-end and
// CPU-cycle breakdowns, the reproduction of the paper's Figures 2-6 and
// Tables 6-7 methodology, plus a GWP-style flat profile.
//
// Usage: fleet_profile [queries_per_platform] [fault_rate] [output_dir]
//
// A nonzero fault_rate arms the fault injector on every shard (half the
// rate as RPC slowdowns, a quarter each as drops and errors), enables
// timeout/retry/hedge policies on the DFS paths, and appends the
// recovered resilience report (wasted work, attempt-count distribution).
// Each platform's trace, folded-stack and pprof exports are written to
// output_dir (default /tmp) as hyperprof_<platform>_*.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/strings.h"
#include "common/table.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "profiling/aggregate.h"
#include "profiling/continuous.h"
#include "profiling/report.h"
#include "profiling/trace_export.h"

using namespace hyperprof;

int main(int argc, char** argv) {
  platforms::FleetConfig config;
  if (argc > 1) {
    config.queries_per_platform =
        static_cast<uint64_t>(std::strtoull(argv[1], nullptr, 10));
  }
  double fault_rate = argc > 2 ? std::atof(argv[2]) : 0.0;
  const std::string output_dir = argc > 3 ? argv[3] : "/tmp";
  if (fault_rate > 0) {
    config.fault.slowdown_probability = fault_rate / 2;
    config.fault.drop_probability = fault_rate / 4;
    config.fault.error_probability = fault_rate / 4;
    config.dfs.read_policy.timeout = SimTime::Millis(50);
    config.dfs.read_policy.max_attempts = 3;
    config.dfs.read_policy.hedge_delay = SimTime::Millis(10);
    config.dfs.write_policy.timeout = SimTime::Millis(100);
    config.dfs.write_policy.max_attempts = 2;
  }
  std::printf("Simulating %llu queries per platform (fault rate %.2f%%)...\n\n",
              static_cast<unsigned long long>(config.queries_per_platform),
              fault_rate * 100.0);

  platforms::FleetSimulation fleet(config);
  fleet.AddDefaultPlatforms();
  fleet.RunAll();

  for (size_t i = 0; i < fleet.platform_count(); ++i) {
    auto result = fleet.Result(i);
    std::printf("--- %s: %llu queries, %llu traced ---\n",
                result.name.c_str(),
                static_cast<unsigned long long>(result.queries_completed),
                static_cast<unsigned long long>(result.queries_sampled));

    std::printf("== End-to-end breakdown (Figure 2 methodology) ==\n%s\n",
                profiling::RenderE2eReport(result.e2e).ToString().c_str());

    std::printf("== Per-query-type breakdown (Dapper view) ==\n");
    {
      TextTable by_type({"Query type", "Queries", "CPU%", "IO%", "Remote%"});
      // Streaming rows: folded at FinishQuery, no re-attribution pass.
      for (const auto& row :
           fleet.TracerOf(i).breakdown().TypeRows(fleet.NamesOf(i))) {
        auto fractions = row.aggregate.MeanQueryFractions();
        by_type.AddRow(row.query_type,
                       {static_cast<double>(row.aggregate.query_count),
                        fractions.cpu * 100, fractions.io * 100,
                        fractions.remote * 100},
                       "%.1f");
      }
      std::printf("%s\n", by_type.ToString().c_str());
    }

    std::printf("== CPU cycle breakdown (Figures 3-6 methodology) ==\n%s",
                profiling::RenderBroadCycleReport(result.cycles)
                    .ToString()
                    .c_str());
    for (int b = 0; b < 3; ++b) {
      std::printf("%s",
                  profiling::RenderFineCycleReport(
                      result.cycles,
                      static_cast<profiling::BroadCategory>(b))
                      .ToString()
                      .c_str());
    }

    std::printf("\n== IPC / MPKI (Tables 6-7 methodology) ==\n%s\n",
                profiling::RenderMicroarchReport(result.microarch)
                    .ToString()
                    .c_str());

    std::printf("== Top leaf symbols (GWP-style flat profile) ==\n%s\n",
                profiling::RenderTopSymbols(fleet.ProfilerOf(i),
                                            fleet.registry(), 12)
                    .ToString()
                    .c_str());

    std::printf("Estimated sync factor f = %.3f\n",
                fleet.TracerOf(i).breakdown().EstimatedSyncFactor());
    std::printf(
        "Storage tier read mix: RAM %.1f%%, SSD %.1f%%, HDD %.1f%%\n\n",
        fleet.DfsOf(i).TierServeFraction(storage::Tier::kRam) * 100,
        fleet.DfsOf(i).TierServeFraction(storage::Tier::kSsd) * 100,
        fleet.DfsOf(i).TierServeFraction(storage::Tier::kHdd) * 100);

    if (const profiling::ContinuousProfiler* continuous =
            fleet.ContinuousOf(i)) {
      auto latency = profiling::WindowCategory::kLatency;
      std::printf(
          "== Continuous profiling (rolling %lldms windows) ==\n"
          "%zu windows in history (%lld..%lld), sampled-query latency "
          "p50 %.3fms p99 %.3fms",
          static_cast<long long>(
              continuous->options().window.nanos() / 1000000),
          continuous->WindowsInHistory(),
          static_cast<long long>(continuous->first_window()),
          static_cast<long long>(continuous->last_window()),
          continuous->RollingQuantile(latency, 0.5) * 1e3,
          continuous->RollingQuantile(latency, 0.99) * 1e3);
      const profiling::BudgetStat& stat = continuous->budget_stat(latency);
      if (stat.windows_evaluated > 0) {
        std::printf("; worst window #%lld carried %.3fms of latency",
                    static_cast<long long>(stat.worst_window),
                    static_cast<double>(stat.worst_total_nanos) / 1e6);
      }
      std::printf("\n\n");
    }

    if (fault_rate > 0) {
      const net::RpcSystem& rpc = fleet.RpcOf(i);
      std::printf(
          "== Resilience (injected faults) ==\n"
          "Injected: %llu (%llu drops, %llu errors, %llu slowdowns); "
          "retries %llu, hedges %llu (%llu won), timeouts %llu, "
          "IO failures %llu\n",
          static_cast<unsigned long long>(fleet.FaultsOf(i).injected_total()),
          static_cast<unsigned long long>(fleet.FaultsOf(i).injected_drops()),
          static_cast<unsigned long long>(fleet.FaultsOf(i).injected_errors()),
          static_cast<unsigned long long>(
              fleet.FaultsOf(i).injected_slowdowns()),
          static_cast<unsigned long long>(rpc.retries_issued()),
          static_cast<unsigned long long>(rpc.hedges_issued()),
          static_cast<unsigned long long>(rpc.hedge_wins()),
          static_cast<unsigned long long>(rpc.timeouts_fired()),
          static_cast<unsigned long long>(fleet.EngineOf(i).io_failures()));
      std::printf("%s\n",
                  profiling::RenderResilienceReport(
                      profiling::ComputeResilienceReport(fleet.TracesOf(i),
                                                         fleet.NamesOf(i)))
                      .ToString()
                      .c_str());
    }

    const std::string prefix = output_dir + "/hyperprof_" + result.name;
    std::string trace_path = prefix + "_traces.json";
    if (profiling::WriteChromeTrace(fleet.TracesOf(i), fleet.NamesOf(i),
                                    trace_path, 100)) {
      std::printf("Wrote %s (load in a Chrome/Perfetto trace viewer)\n",
                  trace_path.c_str());
    }
    std::string folded_path = prefix + "_stacks.folded";
    if (profiling::WriteCollapsedStacks(fleet.TracesOf(i), fleet.NamesOf(i),
                                        folded_path)) {
      std::printf("Wrote %s (flamegraph.pl / speedscope input)\n",
                  folded_path.c_str());
    }
    std::string pprof_path = prefix + "_profile.pb";
    if (profiling::WritePprofProfile(fleet.TracesOf(i), fleet.NamesOf(i),
                                     pprof_path)) {
      std::printf("Wrote %s (go tool pprof compatible)\n\n",
                  pprof_path.c_str());
    }
  }
  return 0;
}
