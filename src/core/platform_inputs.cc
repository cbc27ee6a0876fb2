#include "core/platform_inputs.h"

#include <cassert>

namespace hyperprof::model {

using profiling::FnCategory;

std::vector<FnCategory> AcceleratedCategoriesFor(
    const std::string& platform) {
  // Shared taxes (Section 6.2): compression, RPC, protobuf, STL, OS. Then
  // core compute: filter, compute, aggregation and misc for analytics;
  // read, write, compaction and misc for the databases.
  const bool analytics = platform == "BigQuery";
  return {FnCategory::kCompression, FnCategory::kRpc, FnCategory::kProtobuf,
          FnCategory::kStl, FnCategory::kOperatingSystems,
          analytics ? FnCategory::kFilter : FnCategory::kRead,
          analytics ? FnCategory::kCompute : FnCategory::kWrite,
          analytics ? FnCategory::kAggregate : FnCategory::kCompaction,
          FnCategory::kMiscCore};
}

namespace {

Workload MakeWorkload(const std::string& name, double t_cpu, double t_dep,
                      double f,
                      const profiling::CycleBreakdownReport& cycles,
                      const std::vector<FnCategory>& categories) {
  Workload workload;
  workload.name = name;
  workload.t_cpu = t_cpu;
  workload.t_dep = t_dep;
  workload.f = f;
  for (FnCategory category : categories) {
    Component component;
    component.name = profiling::FnCategoryName(category);
    component.t_sub = t_cpu * cycles.FineFractionOfTotal(category);
    workload.components.push_back(std::move(component));
  }
  return workload;
}

}  // namespace

PlatformModelInput BuildModelInput(
    const platforms::PlatformResult& result,
    const std::vector<profiling::QueryTrace>& traces,
    double avg_query_bytes) {
  PlatformModelInput input;
  input.platform = result.name;
  input.avg_query_bytes = avg_query_bytes;
  double f = profiling::EstimateSyncFactor(traces);
  std::vector<FnCategory> categories = AcceleratedCategoriesFor(result.name);

  const auto& overall = result.e2e.overall;
  // Per-query averages: penalties (setup time, off-chip transfer) are paid
  // per invocation, so the model must operate at query granularity.
  double n = overall.query_count > 0
                 ? static_cast<double>(overall.query_count)
                 : 1.0;
  input.overall =
      MakeWorkload(result.name + "/overall", overall.time.cpu / n,
                   (overall.time.io + overall.time.remote) / n, f,
                   result.cycles, categories);

  for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
    const auto& group = result.e2e.groups[g];
    profiling::QueryGroup group_id = static_cast<profiling::QueryGroup>(g);
    // Per-query average times keep group workloads comparable in scale.
    double n = group.query_count > 0
                   ? static_cast<double>(group.query_count)
                   : 1.0;
    input.by_group[g] = MakeWorkload(
        result.name + "/" + profiling::QueryGroupName(group_id),
        group.time.cpu / n, (group.time.io + group.time.remote) / n, f,
        result.cycles, categories);
    input.group_query_share[g] = result.e2e.QueryShare(group_id);
  }
  return input;
}

Workload BuildWorkloadForCategories(
    const platforms::PlatformResult& result,
    const std::vector<profiling::QueryTrace>& traces,
    const std::vector<FnCategory>& categories) {
  double f = profiling::EstimateSyncFactor(traces);
  const auto& overall = result.e2e.overall;
  double n = overall.query_count > 0
                 ? static_cast<double>(overall.query_count)
                 : 1.0;
  return MakeWorkload(result.name + "/overall", overall.time.cpu / n,
                      (overall.time.io + overall.time.remote) / n, f,
                      result.cycles, categories);
}

GroupWorkloads BuildGroupWorkloads(
    const platforms::PlatformResult& result,
    const std::vector<profiling::QueryTrace>& traces,
    const std::vector<FnCategory>& categories) {
  GroupWorkloads out;
  double f = profiling::EstimateSyncFactor(traces);
  for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
    const auto& group = result.e2e.groups[g];
    profiling::QueryGroup group_id = static_cast<profiling::QueryGroup>(g);
    double n = group.query_count > 0
                   ? static_cast<double>(group.query_count)
                   : 1.0;
    out.by_group[g] = MakeWorkload(
        result.name + "/" + profiling::QueryGroupName(group_id),
        group.time.cpu / n, (group.time.io + group.time.remote) / n, f,
        result.cycles, categories);
    out.query_share[g] = result.e2e.QueryShare(group_id);
  }
  return out;
}

double GroupWeightedSpeedup(
    const GroupWorkloads& groups,
    const std::function<double(const Workload&)>& evaluate) {
  double weighted = 0;
  double total_share = 0;
  for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
    if (groups.query_share[g] <= 0) continue;
    if (groups.by_group[g].t_cpu <= 0 && groups.by_group[g].t_dep <= 0) {
      continue;
    }
    weighted += groups.query_share[g] * evaluate(groups.by_group[g]);
    total_share += groups.query_share[g];
  }
  return total_share > 0 ? weighted / total_share : 1.0;
}

std::vector<FnCategory> PriorStudyCategoriesFor(const std::string& platform) {
  const bool analytics = platform == "BigQuery";
  return {FnCategory::kCompression, FnCategory::kRpc, FnCategory::kProtobuf,
          FnCategory::kMemAllocation,
          analytics ? FnCategory::kFilter : FnCategory::kRead,
          analytics ? FnCategory::kCompute : FnCategory::kWrite,
          analytics ? FnCategory::kAggregate : FnCategory::kCompaction,
          FnCategory::kMiscCore};
}

}  // namespace hyperprof::model
