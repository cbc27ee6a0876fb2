#ifndef HYPERPROF_PERFBENCH_WORKLOADS_H_
#define HYPERPROF_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "platforms/spec.h"
#include "report.h"

namespace perfbench {

// The workloads, why each exists, the layer it isolates, and the host
// facts that sized it, are documented in perfbench/README.md. Each run
// function fills `report` with every end-to-end metric (untraced run) or
// every per-layer metric (traced run) its workload measures; main.cc
// reports the rest as 0 so every run prints the full metric set.

/** Set-ups per untraced run; setup_s is their median. */
inline constexpr size_t kSetupsPerRun = 3;

/** The three calibrated paper platforms, in the default fleet's order. */
std::vector<hyperprof::platforms::PlatformSpec> PaperSpecs();

/** fleet_fused (sharded = false) and fleet_sharded (sharded = true). */
void RunFleetWorkload(const RunArgs& args, bool sharded, RunReport& report);

/**
 * The storage.prewarm_* layer metrics: the PrewarmZipf calls AddPlatform
 * makes for the paper platforms, replayed on standalone filesystems
 * outside any timed window.
 */
void MeasurePrewarm(uint64_t seed, RunReport& report);

/** serve_spanner: open-loop traffic to the epoll daemon. */
void RunServeWorkload(const RunArgs& args, RunReport& report);

}  // namespace perfbench

#endif  // HYPERPROF_PERFBENCH_WORKLOADS_H_
