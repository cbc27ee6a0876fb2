// fleet_fused and fleet_sharded: the batch path, fleet -> recovered
// figures. See perfbench/README.md for why each workload exists.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/limit_studies.h"
#include "core/platform_inputs.h"
#include "net/network.h"
#include "net/rpc.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "profiling/trace_export.h"
#include "sim/simulator.h"
#include "spans.h"
#include "storage/dfs.h"
#include "storage/provisioning.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace hp = hyperprof;
using hp::platforms::FleetConfig;
using hp::platforms::FleetSimulation;
using hp::platforms::PlatformSpec;

constexpr uint64_t kQueriesPerPlatform = 8000;
constexpr uint32_t kTraceSampleOneIn = 10;
constexpr uint32_t kShardsPerPlatform = 3;
constexpr size_t kMaxReps = 8;  // keeps a slow host inside the time limit

FleetConfig MakeConfig(uint64_t seed, bool sharded) {
  // The figure benches' run (bench/bench_fleet.h): FleetConfig defaults
  // with denser trace sampling.
  FleetConfig config;
  config.queries_per_platform = kQueriesPerPlatform;
  config.trace_sample_one_in = kTraceSampleOneIn;
  config.seed = seed;
  if (sharded) {
    // Serial kernels: the parallel shard runners measure the host's
    // scheduler more than the shard fabric.
    config.shards_per_platform = kShardsPerPlatform;
    config.parallelism = 1;
  }
  return config;
}

/** Host threads the run phase uses (parallelism 0 = one per platform). */
uint32_t RunThreads(const FleetConfig& config, size_t platforms) {
  if (config.shards_per_platform > 0 || config.parallelism == 1) return 1;
  const uint32_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const uint32_t wanted =
      config.parallelism == 0 ? hardware : config.parallelism;
  return std::min<uint32_t>(wanted, static_cast<uint32_t>(platforms));
}

/** Everything one set-up + run + figures pass measured. */
struct FleetRep {
  double setup_s = 0;
  double rss_setup_mb = 0;
  // The queries_per_s / cpu_us_per_query window: run -> figures.
  double window_s = 0;
  double window_cpu_s = 0;
  double run_s = 0;
  double run_cpu_s = 0;
  uint64_t export_bytes = 0;
  uint64_t configured = 0;
  uint64_t completed = 0;
  uint32_t run_threads = 1;
  std::string digest;
  // Simulated counts (identical for a given seed on every host).
  uint64_t events = 0;
  uint64_t rpc_calls = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t dfs_reads = 0;
  uint64_t dfs_writes = 0;
  uint64_t ram_reads = 0;
  uint64_t ssd_reads = 0;
  uint64_t queries_sampled = 0;
  uint64_t cpu_samples = 0;
  uint64_t epochs = 0;
  uint64_t coalesced_epochs = 0;
  uint64_t messages = 0;
  uint64_t exchange_allocs = 0;
  uint64_t late_deliveries = 0;
  hp::platforms::FleetMemoryStats memory;
};

/** The limit studies the figure benches (Figs. 9-15) run per platform. */
void RunStudies(const hp::platforms::PlatformResult& result,
                const std::vector<hp::profiling::QueryTrace>& traces,
                std::vector<double>& out) {
  namespace model = hp::model;
  const double offload =
      result.name == "BigQuery" ? 64.0 * (1 << 20) : 32.0 * (1 << 10);
  const model::PlatformModelInput input =
      model::BuildModelInput(result, traces, offload);
  const std::vector<double> factors = {1, 2, 4, 8, 16, 32, 64};
  for (bool remove_dep : {false, true}) {
    for (const auto& point :
         model::UniformSpeedupSweep(input.overall, factors, remove_dep)) {
      out.push_back(point.e2e_speedup);
    }
  }
  for (const auto& group : input.by_group) {
    for (const auto& point : model::UniformSpeedupSweep(group, factors, true)) {
      out.push_back(point.e2e_speedup);
    }
  }
  for (const auto& row :
       model::IncrementalAccelerationStudy(input.overall, 8.0, offload)) {
    out.insert(out.end(), row.speedup_by_config.begin(),
               row.speedup_by_config.end());
  }
  for (const auto& row : model::SetupTimeSweep(
           input.overall, {0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}, 8.0,
           offload)) {
    out.insert(out.end(), row.speedup_by_config.begin(),
               row.speedup_by_config.end());
  }
  const model::Workload prior = model::BuildWorkloadForCategories(
      result, traces, model::PriorStudyCategoriesFor(result.name));
  for (const auto& row :
       model::PriorAcceleratorStudy(prior, model::PriorAcceleratorSet())) {
    out.push_back(row.sync_speedup);
    out.push_back(row.chained_speedup);
  }
}

void FoldAttributed(const hp::profiling::AttributedTime& time, Digest& digest) {
  digest.AddDouble(time.cpu);
  digest.AddDouble(time.io);
  digest.AddDouble(time.remote);
}

/** Set-up, run, and recovered figures of one fleet; checks into `report`. */
FleetRep RunFleetOnce(uint64_t seed, bool sharded, RunReport& report) {
  FleetRep rep;
  const FleetConfig config = MakeConfig(seed, sharded);
  const std::vector<PlatformSpec> specs = PaperSpecs();

  const double setup_start = WallSeconds();
  std::unique_ptr<FleetSimulation> fleet;
  {
    ScopedSpan setup_span("platforms.setup");
    fleet = std::make_unique<FleetSimulation>(config);
    for (const PlatformSpec& spec : specs) {
      ScopedSpan span("platforms.add_platform");
      fleet->AddPlatform(spec);
    }
  }
  rep.setup_s = WallSeconds() - setup_start;
  rep.rss_setup_mb = CurrentRssMb();
  rep.run_threads = RunThreads(config, specs.size());

  const size_t platforms = fleet->platform_count();
  std::vector<hp::platforms::PlatformResult> results(platforms);
  std::vector<double> studies;
  std::vector<std::string> chrome(platforms), folded(platforms);
  std::vector<std::vector<uint8_t>> pprof(platforms);

  const double window_start = WallSeconds();
  const double window_cpu_start = ProcessCpuSeconds();
  {
    ScopedSpan window_span("platforms.run_to_figures");
    {
      ScopedSpan span("platforms.run");
      if (sharded) {
        fleet->Start();
        {
          ScopedSpan advance_span("platforms.advance");
          fleet->Advance(hp::SimTime::Max());
        }
        ScopedSpan finish_span("platforms.finish");
        fleet->Finish();
      } else {
        fleet->RunAll();
      }
    }
    rep.run_s = WallSeconds() - window_start;
    rep.run_cpu_s = ProcessCpuSeconds() - window_cpu_start;

    {
      ScopedSpan span("profiling.report");
      for (size_t p = 0; p < platforms; ++p) results[p] = fleet->Result(p);
    }
    {
      ScopedSpan span("core.model");
      for (size_t p = 0; p < platforms; ++p) {
        RunStudies(results[p], fleet->TracesOf(p), studies);
      }
    }
    {
      ScopedSpan span("profiling.export");
      for (size_t p = 0; p < platforms; ++p) {
        const auto& traces = fleet->TracesOf(p);
        const auto& names = fleet->NamesOf(p);
        chrome[p] = hp::profiling::ExportChromeTrace(traces, names);
        folded[p] = hp::profiling::ExportCollapsedStacks(traces, names);
        pprof[p] = hp::profiling::ExportPprofProfile(traces, names);
      }
    }
  }
  rep.window_s = WallSeconds() - window_start;
  rep.window_cpu_s = ProcessCpuSeconds() - window_cpu_start;

  // Correctness checks and the digest, outside every timed window.
  Digest digest;
  rep.configured = config.queries_per_platform * platforms;
  for (size_t p = 0; p < platforms; ++p) {
    const auto& result = results[p];
    const auto totals = fleet->TotalsOf(p);
    const auto shard = fleet->ShardStatsOf(p);
    const std::string tag = result.name + " (seed " + std::to_string(seed) + ")";
    rep.completed += std::min(result.queries_completed,
                              config.queries_per_platform);
    report.Check(result.queries_completed == config.queries_per_platform &&
                     totals.queries_completed == config.queries_per_platform,
                 tag + ": completed " + std::to_string(result.queries_completed) +
                     " of " + std::to_string(config.queries_per_platform));
    report.Check(shard.late_deliveries == 0,
                 tag + ": late shard deliveries");
    report.Check(shard.undelivered == 0, tag + ": undelivered envelopes");

    digest.AddBytes(result.name.data(), result.name.size());
    digest.Add(result.queries_completed);
    digest.Add(result.queries_sampled);
    for (const auto& group : result.e2e.groups) {
      FoldAttributed(group.time, digest);
      FoldAttributed(group.fraction_sum, digest);
      digest.Add(group.query_count);
    }
    FoldAttributed(result.e2e.overall.time, digest);
    digest.Add(result.e2e.overall.query_count);
    for (double cycles : result.cycles.cycles_by_category) {
      digest.AddDouble(cycles);
    }
    for (uint64_t count :
         {totals.events_executed, totals.pending_events,
          totals.completed_calls, totals.failed_calls, totals.retries_issued,
          totals.hedges_issued, totals.timeouts_fired, totals.io_failures,
          shard.messages_posted, shard.messages_delivered, shard.epochs,
          shard.coalesced_epochs}) {
      digest.Add(count);
    }
    digest.Add(fleet->ProfilerOf(p).samples().size());
    digest.AddBytes(chrome[p].data(), chrome[p].size());
    digest.AddBytes(folded[p].data(), folded[p].size());
    digest.AddBytes(pprof[p].data(), pprof[p].size());
    rep.export_bytes += chrome[p].size() + folded[p].size() + pprof[p].size();

    rep.events += totals.events_executed;
    rep.rpc_calls += totals.completed_calls + totals.failed_calls;
    rep.retries += totals.retries_issued;
    rep.timeouts += totals.timeouts_fired;
    const auto& dfs = fleet->DfsOf(p);
    for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
      const auto& store = dfs.server_store(s);
      rep.dfs_reads += store.reads();
      rep.dfs_writes += store.writes();
      rep.ram_reads += store.tier_reads(hp::storage::Tier::kRam);
      rep.ssd_reads += store.tier_reads(hp::storage::Tier::kSsd);
    }
    rep.queries_sampled += result.queries_sampled;
    rep.cpu_samples += fleet->ProfilerOf(p).samples().size();
    rep.epochs += shard.epochs;
    rep.coalesced_epochs += shard.coalesced_epochs;
    rep.messages += shard.messages_posted;
    rep.exchange_allocs += shard.exchange_allocs;
    rep.late_deliveries += shard.late_deliveries;
  }
  for (double value : studies) digest.AddDouble(value);
  rep.digest = digest.Hex();
  rep.memory = fleet->MemoryStats();

  fleet.reset();
  ReleaseFreedMemory();
  return rep;
}

double PerQuery(double value, uint64_t queries) {
  return queries > 0 ? value / static_cast<double>(queries) : 0;
}

void SetEndToEnd(const std::vector<FleetRep>& reps, RunReport& report) {
  std::vector<double> setup, qps, cpu;
  for (const FleetRep& rep : reps) {
    setup.push_back(rep.setup_s);
    qps.push_back(static_cast<double>(rep.completed) / rep.window_s);
    cpu.push_back(1e6 * PerQuery(rep.window_cpu_s, rep.completed));
  }
  report.Set("setup_s", Median(setup), "s");
  report.Set("queries_per_s", Median(qps), "1/s");
  report.Set("cpu_us_per_query", Median(cpu), "us");
}

void SetPerLayer(const FleetRep& rep, const SpanRecorder& spans,
                 RunReport& report) {
  const uint64_t queries = rep.completed;
  report.Set("platforms.add_platform_s",
             spans.TotalSeconds("platforms.add_platform"), "s");
  report.Set("mem.rss_setup_mb", rep.rss_setup_mb, "MB");
  report.Set("platforms.run_s", spans.TotalSeconds("platforms.run"), "s");
  report.Set("platforms.finish_s", spans.TotalSeconds("platforms.finish"), "s");
  report.Set("profiling.report_s", spans.TotalSeconds("profiling.report"), "s");
  report.Set("core.model_s", spans.TotalSeconds("core.model"), "s");
  report.Set("profiling.export_s", spans.TotalSeconds("profiling.export"), "s");
  report.Set("profiling.export_mb", static_cast<double>(rep.export_bytes) / 1e6,
             "MB");
  report.Set("sim.events", static_cast<double>(rep.events), "count");
  report.Set("sim.events_per_query",
             PerQuery(static_cast<double>(rep.events), queries), "count");
  report.Set("sim.ns_per_event",
             rep.events > 0 ? 1e9 * rep.run_cpu_s / static_cast<double>(rep.events)
                            : 0,
             "ns");
  report.Set("common.parallel_efficiency",
             rep.run_cpu_s / (rep.run_s * rep.run_threads), "ratio");
  report.Set("sim.shard.epochs", static_cast<double>(rep.epochs), "count");
  report.Set("sim.shard.epochs_per_query",
             PerQuery(static_cast<double>(rep.epochs), queries), "count");
  report.Set("sim.shard.coalesced_ratio",
             rep.epochs + rep.coalesced_epochs > 0
                 ? static_cast<double>(rep.coalesced_epochs) /
                       static_cast<double>(rep.epochs + rep.coalesced_epochs)
                 : 0,
             "ratio");
  report.Set("sim.shard.messages_per_query",
             PerQuery(static_cast<double>(rep.messages), queries), "count");
  report.Set("sim.shard.exchange_allocs",
             static_cast<double>(rep.exchange_allocs), "count");
  report.Set("sim.shard.late_deliveries",
             static_cast<double>(rep.late_deliveries), "count");
  report.Set("mem.kernel_mb", static_cast<double>(rep.memory.kernel_bytes) / 1e6,
             "MB");
  report.Set("mem.tracer_mb", static_cast<double>(rep.memory.tracer_bytes) / 1e6,
             "MB");
  report.Set("mem.profiler_mb",
             static_cast<double>(rep.memory.profiler_bytes) / 1e6, "MB");
  report.Set("mem.bytes_per_served_query",
             PerQuery(static_cast<double>(rep.memory.total_bytes), queries), "B");
  report.Set("net.rpc_calls_per_query",
             PerQuery(static_cast<double>(rep.rpc_calls), queries), "count");
  report.Set("net.retries", static_cast<double>(rep.retries), "count");
  report.Set("net.timeouts", static_cast<double>(rep.timeouts), "count");
  report.Set("storage.reads_per_query",
             PerQuery(static_cast<double>(rep.dfs_reads), queries), "count");
  report.Set("storage.writes_per_query",
             PerQuery(static_cast<double>(rep.dfs_writes), queries), "count");
  report.Set("storage.ram_hit_ratio",
             rep.dfs_reads > 0 ? static_cast<double>(rep.ram_reads) /
                                     static_cast<double>(rep.dfs_reads)
                               : 0,
             "ratio");
  report.Set("storage.ssd_hit_ratio",
             rep.dfs_reads > 0 ? static_cast<double>(rep.ssd_reads) /
                                     static_cast<double>(rep.dfs_reads)
                               : 0,
             "ratio");
  report.Set("profiling.queries_sampled",
             static_cast<double>(rep.queries_sampled), "count");
  report.Set("profiling.cpu_samples", static_cast<double>(rep.cpu_samples),
             "count");
}

}  // namespace

std::vector<PlatformSpec> PaperSpecs() {
  return {hp::platforms::SpannerSpec(), hp::platforms::BigTableSpec(),
          hp::platforms::BigQuerySpec()};
}

void MeasurePrewarm(uint64_t seed, RunReport& report) {
  const FleetConfig config = MakeConfig(seed, /*sharded=*/false);
  double seconds = 0;
  uint64_t blocks = 0;
  uint64_t entries = 0;
  for (const PlatformSpec& spec : PaperSpecs()) {
    hp::sim::Simulator simulator;
    hp::net::NetworkModel network;
    hp::net::RpcSystem rpc(&simulator, &network, hp::Rng(config.seed));
    hp::storage::DistributedFileSystem dfs(&simulator, &rpc, config.dfs,
                                           hp::Rng(config.seed + 1));
    const uint64_t ram_blocks = hp::storage::MinKeysForMass(
        spec.ram_hit_target, spec.block_space, spec.block_zipf_s);
    const uint64_t ssd_blocks = hp::storage::MinKeysForMass(
        spec.ram_ssd_hit_target, spec.block_space, spec.block_zipf_s);
    const double start = WallSeconds();
    {
      ScopedSpan span("storage.prewarm");
      dfs.PrewarmZipf(ram_blocks, ssd_blocks, spec.typical_block_bytes);
    }
    seconds += WallSeconds() - start;
    blocks += ssd_blocks + std::min(ram_blocks, ssd_blocks);
    for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
      entries += dfs.server_store(s).ram_cache().entry_count() +
                 dfs.server_store(s).ssd_cache().entry_count();
    }
  }
  ReleaseFreedMemory();
  report.Set("storage.prewarm_s", seconds, "s");
  report.Set("storage.prewarm_blocks", static_cast<double>(blocks), "count");
  report.Set("storage.cache_entries", static_cast<double>(entries), "count");
}

void RunFleetWorkload(const RunArgs& args, bool sharded, RunReport& report) {
  const char* name = sharded ? "fleet_sharded" : "fleet_fused";
  std::vector<FleetRep> reps;
  if (!args.trace) {
    // Repeat set-up + run while another rep fits in the measuring time,
    // at least kSetupsPerRun times; every end-to-end metric is a median
    // over reps.
    const double start = WallSeconds();
    double last_rep_s = 0;
    while (reps.size() < kSetupsPerRun ||
           (WallSeconds() - start + last_rep_s <= args.seconds &&
            reps.size() < kMaxReps)) {
      const double rep_start = WallSeconds();
      const FleetRep& rep =
          reps.emplace_back(RunFleetOnce(args.seed, sharded, report));
      std::printf("rep %zu: setup %.3f s, run %.3f s, run-to-figures %.3f s "
                  "(%.3f s CPU)\n",
                  reps.size(), rep.setup_s, rep.run_s, rep.window_s,
                  rep.window_cpu_s);
      std::fflush(stdout);
      last_rep_s = WallSeconds() - rep_start;
    }
    SetEndToEnd(reps, report);
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // One untraced rep for the overhead baseline, then the traced rep.
    reps.push_back(RunFleetOnce(args.seed, sharded, report));
    SpanRecorder spans;
    SetActiveSpans(&spans);
    reps.push_back(RunFleetOnce(args.seed, sharded, report));
    SetActiveSpans(nullptr);
    const FleetRep& untraced = reps[0];
    const FleetRep& traced = reps[1];
    SetPerLayer(traced, spans, report);
    report.Set("trace.overhead_setup_s", traced.setup_s - untraced.setup_s, "s");
    report.Set("trace.overhead_queries_per_s",
               static_cast<double>(traced.completed) / traced.window_s -
                   static_cast<double>(untraced.completed) / untraced.window_s,
               "1/s");
    report.Set("trace.overhead_cpu_us_per_query",
               1e6 * (PerQuery(traced.window_cpu_s, traced.completed) -
                      PerQuery(untraced.window_cpu_s, untraced.completed)),
               "us");
    MeasurePrewarm(args.seed, report);
    report.Check(FinishTrace(spans, args.spans_path), "spans not written");
  }
  for (const FleetRep& rep : reps) {
    report.Attempt(rep.configured);
    report.Fail(rep.configured - rep.completed, "queries not completed");
    // Traced or not, every set-up of one seed recovers the same bits.
    report.Check(rep.digest == reps[0].digest,
                 "digest differs between set-ups of one seed");
  }
  std::printf("digest %s seed=%llu %s\n", name,
              static_cast<unsigned long long>(args.seed),
              reps.front().digest.c_str());
}

}  // namespace perfbench
