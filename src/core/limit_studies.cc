#include "core/limit_studies.h"

#include <cassert>

namespace hyperprof::model {

namespace {

std::array<AccelSystemConfig, 4> FigureConfigs() {
  return {AccelSystemConfig::SyncOffChip(), AccelSystemConfig::SyncOnChip(),
          AccelSystemConfig::AsyncOnChip(),
          AccelSystemConfig::ChainedOnChip()};
}

}  // namespace

std::vector<SweepPoint> UniformSpeedupSweep(const Workload& base,
                                            const std::vector<double>& factors,
                                            bool remove_dep,
                                            const AccelSystemConfig& config,
                                            double offload_bytes) {
  std::vector<SweepPoint> points;
  points.reserve(factors.size());
  for (double factor : factors) {
    assert(factor >= 1.0);
    Workload workload = base;
    ApplyConfig(workload, config, offload_bytes);
    for (Component& component : workload.components) {
      component.speedup = factor;
    }
    AccelModel model(std::move(workload));
    points.push_back(SweepPoint{factor, model.Speedup(remove_dep)});
  }
  return points;
}

std::vector<IncrementalPoint> IncrementalAccelerationStudy(
    const Workload& base, double per_accel_speedup, double offload_bytes,
    double link_bandwidth) {
  auto configs = FigureConfigs();
  for (auto& config : configs) config.link_bandwidth = link_bandwidth;
  std::vector<IncrementalPoint> rows;
  rows.reserve(base.components.size());
  for (size_t count = 1; count <= base.components.size(); ++count) {
    IncrementalPoint row;
    row.component_added = base.components[count - 1].name;
    for (size_t c = 0; c < configs.size(); ++c) {
      Workload workload = base;
      workload.components.resize(count);
      ApplyConfig(workload, configs[c], offload_bytes);
      for (Component& component : workload.components) {
        component.speedup = per_accel_speedup;
      }
      AccelModel model(std::move(workload));
      row.speedup_by_config[c] = model.Speedup(/*remove_dep=*/false);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<SetupSweepPoint> SetupTimeSweep(
    const Workload& base, const std::vector<double>& setup_times,
    double per_accel_speedup, double offload_bytes, double link_bandwidth) {
  auto configs = FigureConfigs();
  for (auto& config : configs) config.link_bandwidth = link_bandwidth;
  std::vector<SetupSweepPoint> rows;
  rows.reserve(setup_times.size());
  for (double setup : setup_times) {
    SetupSweepPoint row;
    row.setup_time = setup;
    for (size_t c = 0; c < configs.size(); ++c) {
      AccelSystemConfig config = configs[c];
      config.setup_time = setup;
      Workload workload = base;
      ApplyConfig(workload, config, offload_bytes);
      for (Component& component : workload.components) {
        component.speedup = per_accel_speedup;
      }
      AccelModel model(std::move(workload));
      row.speedup_by_config[c] = model.Speedup(/*remove_dep=*/false);
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<PublishedAccelerator> PriorAcceleratorSet() {
  // Largest published speedups for each operation, as used by the paper's
  // Figure 15 (setup times zeroed for uniformity). Sources:
  //  - Q100 database processing unit for core compute operators [64]
  //  - Mallacc memory-allocation accelerator [29]
  //  - ProtoAcc protobuf (de)serialization accelerator [30]
  //  - Cerebros RPC processor [43]
  //  - IBM z15 on-chip compression accelerator [6]
  return {
      {"Compression", 30.0, "IBM z15 [6]"},
      {"RPC", 20.0, "Cerebros [43]"},
      {"Protobuf", 10.0, "ProtoAcc [30]"},
      {"Mem. Allocation", 1.5, "Mallacc [29]"},
      {"Read", 10.0, "Q100 [64]"},
      {"Write", 10.0, "Q100 [64]"},
      {"Compaction", 10.0, "Q100 [64]"},
      {"Misc. Core Ops.", 10.0, "Q100 [64]"},
      {"Filter", 10.0, "Q100 [64]"},
      {"Compute", 10.0, "Q100 [64]"},
      {"Aggregate", 10.0, "Q100 [64]"},
  };
}

namespace {

/** Applies published speedups to matching components; returns matches. */
size_t ApplyPublished(Workload& workload,
                      const std::vector<PublishedAccelerator>& accelerators) {
  size_t matched = 0;
  for (Component& component : workload.components) {
    for (const PublishedAccelerator& accelerator : accelerators) {
      if (component.name == accelerator.component_name) {
        component.speedup = accelerator.speedup;
        ++matched;
        break;
      }
    }
  }
  return matched;
}

double EvaluateWith(const Workload& base,
                    const std::vector<PublishedAccelerator>& accelerators,
                    Invocation invocation) {
  AccelSystemConfig config = invocation == Invocation::kChained
                                 ? AccelSystemConfig::ChainedOnChip()
                                 : AccelSystemConfig::SyncOnChip();
  Workload workload = base;
  // Keep only components that have a published accelerator; the rest of
  // the CPU time returns to the unaccelerated residual automatically.
  std::vector<Component> kept;
  for (const Component& component : workload.components) {
    for (const PublishedAccelerator& accelerator : accelerators) {
      if (component.name == accelerator.component_name) {
        kept.push_back(component);
        break;
      }
    }
  }
  workload.components = std::move(kept);
  ApplyConfig(workload, config, /*offload_bytes=*/0);
  ApplyPublished(workload, accelerators);
  AccelModel model(std::move(workload));
  return model.Speedup(/*remove_dep=*/false);
}

}  // namespace

std::vector<PriorAcceleratorPoint> PriorAcceleratorStudy(
    const Workload& base,
    const std::vector<PublishedAccelerator>& accelerators) {
  // Individual accelerators: include only those matching a component of
  // this workload.
  std::vector<PublishedAccelerator> present;
  for (const PublishedAccelerator& accelerator : accelerators) {
    for (const Component& component : base.components) {
      if (component.name == accelerator.component_name) {
        present.push_back(accelerator);
        break;
      }
    }
  }
  std::vector<PriorAcceleratorPoint> rows;
  rows.reserve(present.size() + 1);
  for (const PublishedAccelerator& accelerator : present) {
    PriorAcceleratorPoint row;
    row.label = accelerator.component_name + " (" + accelerator.source + ")";
    row.sync_speedup =
        EvaluateWith(base, {accelerator}, Invocation::kSynchronous);
    row.chained_speedup =
        EvaluateWith(base, {accelerator}, Invocation::kChained);
    rows.push_back(std::move(row));
  }
  PriorAcceleratorPoint combined;
  combined.label = "Combined";
  combined.sync_speedup =
      EvaluateWith(base, accelerators, Invocation::kSynchronous);
  combined.chained_speedup =
      EvaluateWith(base, accelerators, Invocation::kChained);
  rows.push_back(std::move(combined));
  return rows;
}

}  // namespace hyperprof::model
