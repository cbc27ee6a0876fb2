#include "testing/recovery_claims.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/strings.h"
#include "core/configs.h"
#include "core/limit_studies.h"
#include "core/platform_inputs.h"
#include "platforms/platforms.h"
#include "profiling/categories.h"

namespace hyperprof::claims {
namespace {

using platforms::FleetSimulation;
using platforms::PlatformResult;
using platforms::PlatformSpec;
using profiling::BroadCategory;
using profiling::BroadOf;
using profiling::FnCategory;

constexpr const char* kNames[] = {"Spanner", "BigTable", "BigQuery"};

Check Greater(std::string name, double value, double bound) {
  return {std::move(name), value, value - bound, value > bound, ""};
}

Check Less(std::string name, double value, double bound) {
  return {std::move(name), value, bound - value, value < bound, ""};
}

Check AtLeast(std::string name, double value, double bound) {
  return {std::move(name), value, value - bound, value >= bound, ""};
}

/** Open interval (lo, hi); the margin is the distance to the nearer end. */
Check Between(std::string name, double value, double lo, double hi) {
  return {std::move(name), value, std::min(value - lo, hi - value),
          value > lo && value < hi, ""};
}

/**
 * Folds tolerance bands |value - target| <= tolerance into one check: the
 * worst band's error as a fraction of its tolerance, at most 1.
 */
class Bands {
 public:
  void Add(double value, double target, double tolerance, std::string where) {
    const double used = std::fabs(value - target) / tolerance;
    if (!(used <= worst_)) {
      worst_ = used;
      where_ = std::move(where);
    }
  }

  Check Result(std::string name) const {
    return {std::move(name), worst_, 1.0 - worst_, worst_ <= 1.0, where_};
  }

 private:
  double worst_ = -std::numeric_limits<double>::infinity();
  std::string where_;
};

const PlatformSpec& Spec(size_t index) {
  static const PlatformSpec specs[] = {platforms::SpannerSpec(),
                                       platforms::BigTableSpec(),
                                       platforms::BigQuerySpec()};
  return specs[index];
}

model::PlatformModelInput Input(const FleetSimulation& fleet, size_t index) {
  return model::BuildModelInput(fleet.Result(index), fleet.TracesOf(index), 0);
}

double GroupMeanSpeedup(const FleetSimulation& fleet, size_t index,
                        double factor, const model::AccelSystemConfig& config,
                        double offload_bytes) {
  PlatformResult result = fleet.Result(index);
  auto groups = model::BuildGroupWorkloads(
      result, fleet.TracesOf(index),
      model::AcceleratedCategoriesFor(result.name));
  return model::GroupWeightedSpeedup(groups, [&](const model::Workload& base) {
    model::Workload workload = base;
    model::ApplyConfig(workload, config, offload_bytes);
    for (auto& component : workload.components) {
      component.speedup = factor;
    }
    return model::AccelModel(workload).Speedup();
  });
}

/** How many remote-work spans carry a name, and the shortest one (s). */
struct SpanCount {
  int count = 0;
  double shortest = std::numeric_limits<double>::infinity();
};

SpanCount RemoteSpans(const FleetSimulation& fleet, size_t index,
                      const char* name) {
  SpanCount spans;
  const profiling::NameId id = fleet.NamesOf(index).Find(name);
  if (id == profiling::kInvalidNameId) return spans;
  for (const auto& trace : fleet.TracesOf(index)) {
    for (const auto& span : trace.spans) {
      if (span.kind == profiling::SpanKind::kRemoteWork && span.name == id) {
        ++spans.count;
        spans.shortest =
            std::min(spans.shortest, (span.end - span.start).ToSeconds());
      }
    }
  }
  return spans;
}

void Append(Checks& to, Checks from) {
  for (Check& check : from) to.push_back(std::move(check));
}

}  // namespace

Checks QueriesComplete(const FleetSimulation& fleet,
                       uint64_t queries_per_platform) {
  double short_by = 0;
  double min_sampled = std::numeric_limits<double>::infinity();
  for (size_t p = 0; p < fleet.platform_count(); ++p) {
    PlatformResult result = fleet.Result(p);
    short_by = std::max(
        short_by, std::fabs(static_cast<double>(result.queries_completed) -
                            static_cast<double>(queries_per_platform)));
    min_sampled =
        std::min(min_sampled, static_cast<double>(result.queries_sampled));
  }
  // The margin is minus the largest shortfall; 0.0 - 0.0 is +0, so an
  // exact run prints 0, not -0.
  return {AtLeast("every configured query completes", 0.0 - short_by, 0),
          Greater("queries sampled > 300", min_sampled, 300)};
}

Checks BroadCycleShares(const FleetSimulation& fleet) {
  Bands bands;
  for (size_t p = 0; p < 3; ++p) {
    PlatformResult result = fleet.Result(p);
    double truth[3] = {0, 0, 0};
    for (size_t i = 0; i < profiling::kNumFnCategories; ++i) {
      truth[static_cast<int>(BroadOf(static_cast<FnCategory>(i)))] +=
          Spec(p).compute_mix[i];
    }
    for (int b = 0; b < 3; ++b) {
      bands.Add(result.cycles.BroadFraction(static_cast<BroadCategory>(b)),
                truth[b], 0.03, StrFormat("%s broad %d", kNames[p], b));
    }
  }
  return {bands.Result("Fig. 3 broad shares within 0.03 of truth")};
}

Checks FineCycleShares(const FleetSimulation& fleet) {
  Bands bands;
  for (size_t p = 0; p < 3; ++p) {
    PlatformResult result = fleet.Result(p);
    for (size_t i = 0; i < profiling::kNumFnCategories; ++i) {
      FnCategory category = static_cast<FnCategory>(i);
      bands.Add(result.cycles.FineFractionOfTotal(category),
                Spec(p).compute_mix[i], 0.02,
                StrFormat("%s %s", kNames[p],
                          profiling::FnCategoryName(category)));
    }
  }
  return {bands.Result("Figs. 4-6 fine shares within 0.02 of truth")};
}

Checks MicroarchTable7(const FleetSimulation& fleet) {
  Bands ipc, mpki;
  for (size_t p = 0; p < 3; ++p) {
    PlatformResult result = fleet.Result(p);
    for (int b = 0; b < 3; ++b) {
      const auto& truth = Spec(p).microarch[b];
      const auto& measured = result.microarch.by_broad[b];
      const std::string where = StrFormat("%s broad %d", kNames[p], b);
      ipc.Add(measured.Ipc(), truth.ipc, 0.05, where);
      mpki.Add(measured.BrMpki(), truth.br_mpki, 0.05 * truth.br_mpki + 0.1,
               where + " branch");
      mpki.Add(measured.L1iMpki(), truth.l1i_mpki,
               0.05 * truth.l1i_mpki + 0.1, where + " L1I");
      mpki.Add(measured.DtlbLdMpki(), truth.dtlb_ld_mpki,
               0.05 * truth.dtlb_ld_mpki + 0.1, where + " DTLB");
    }
  }
  return {ipc.Result("Table 7 IPC within 0.05"),
          mpki.Result("Table 7 MPKI within 5% + 0.1")};
}

Checks QueryGroupShares(const FleetSimulation& fleet) {
  // Section 4.2: >60% of Spanner/BigTable queries CPU heavy, ~10% for
  // BigQuery.
  const auto share = [&fleet](size_t p, profiling::QueryGroup group) {
    return fleet.Result(p).e2e.QueryShare(group);
  };
  using profiling::QueryGroup;
  return {Greater("Spanner CPU-heavy share > 0.60",
                  share(0, QueryGroup::kCpuHeavy), 0.60),
          Greater("BigTable CPU-heavy share > 0.60",
                  share(1, QueryGroup::kCpuHeavy), 0.60),
          Less("BigQuery CPU-heavy share < 0.25",
               share(2, QueryGroup::kCpuHeavy), 0.25),
          Greater("BigQuery IO-heavy share > 0.4",
                  share(2, QueryGroup::kIoHeavy), 0.4)};
}

Checks CrossPlatformBalance(const FleetSimulation& fleet) {
  // Section 4.2: across platforms, queries spend ~48% on compute and ~52%
  // on remote work + storage combined (query-weighted mean; generous
  // tolerance for the simulated substrate).
  double cpu = 0, dep = 0;
  for (size_t p = 0; p < 3; ++p) {
    auto mean = fleet.Result(p).e2e.overall.MeanQueryFractions();
    cpu += mean.cpu;
    dep += mean.io + mean.remote;
  }
  cpu /= 3;
  dep /= 3;
  Bands cpu_band, dep_band;
  cpu_band.Add(cpu, 0.48, 0.10, "");
  dep_band.Add(dep, 0.52, 0.10, "");
  return {cpu_band.Result("mean compute share within 0.10 of 0.48"),
          dep_band.Result("mean IO + remote share within 0.10 of 0.52")};
}

Checks BigTableRemoteDominated(const FleetSimulation& fleet) {
  // Remote compaction waits dominate BigTable's time-weighted average —
  // the source of the paper's enormous Figure 9 upper bound.
  auto fractions = fleet.Result(1).e2e.overall.Fractions();
  return {Greater("BigTable remote fraction > 0.9", fractions.remote, 0.9),
          Less("BigTable CPU fraction < 0.05", fractions.cpu, 0.05)};
}

Checks SyncFactors(const FleetSimulation& fleet) {
  // Platforms with pipelined scans (Spanner, BigQuery) overlap CPU with
  // IO, so f < 1; BigTable phases are strictly serial.
  double in_range = std::numeric_limits<double>::infinity();
  double f[3];
  for (size_t p = 0; p < 3; ++p) {
    f[p] = profiling::EstimateSyncFactor(fleet.TracesOf(p));
    in_range = std::min({in_range, f[p], 1.0 - f[p]});
  }
  return {AtLeast("sync factors in [0, 1]", in_range, 0),
          Less("Spanner sync factor < 0.999", f[0], 0.999),
          Greater("BigTable sync factor > 0.999", f[1], 0.999)};
}

Checks StorageTiers(const FleetSimulation& fleet) {
  // The paper observes reads hitting SSD more than HDD; with warmed
  // caches our substrate reproduces that ordering for the databases
  // (Section 3), and every tier serves reads.
  const double spanner_io =
      fleet.Result(0).e2e.overall.MeanQueryFractions().io;
  const double bigquery_io =
      fleet.Result(2).e2e.overall.MeanQueryFractions().io;
  double ram_min = std::numeric_limits<double>::infinity();
  double ssd_over_hdd = std::numeric_limits<double>::infinity();
  Bands sums;
  for (size_t p = 0; p < 2; ++p) {
    const auto& dfs = fleet.DfsOf(p);
    double ram = dfs.TierServeFraction(storage::Tier::kRam);
    double ssd = dfs.TierServeFraction(storage::Tier::kSsd);
    double hdd = dfs.TierServeFraction(storage::Tier::kHdd);
    ram_min = std::min(ram_min, ram);
    ssd_over_hdd = std::min(ssd_over_hdd, ssd - hdd);
    sums.Add(ram + ssd + hdd, 1.0, 1e-9, kNames[p]);
  }
  return {Less("Spanner - BigQuery mean IO share < 0",
               spanner_io - bigquery_io, 0),
          Greater("database RAM serve fraction > 0.3", ram_min, 0.3),
          Greater("database SSD - HDD serve fraction > 0", ssd_over_hdd, 0),
          sums.Result("database tier fractions sum to 1 within 1e-9")};
}

Checks SpannerConsensusSpans(const FleetSimulation& fleet) {
  // Every sampled read_write_txn / global_commit trace carries a consensus
  // span from an actual Paxos round: at least two message exchanges plus
  // acceptor service, so anything under ~200us would mean the protocol
  // did not run.
  SpanCount spans = RemoteSpans(fleet, 0, "consensus");
  return {Greater("Spanner consensus spans > 50", spans.count, 50),
          Greater("shortest consensus span > 200 us", spans.shortest, 200e-6)};
}

Checks BigQueryShuffleSpans(const FleetSimulation& fleet) {
  // 8 mappers x 64 MiB through the fabric takes tens of ms.
  SpanCount spans = RemoteSpans(fleet, 2, "shuffle");
  return {Greater("BigQuery shuffle spans > 20", spans.count, 20),
          Greater("shortest shuffle span > 10 ms", spans.shortest, 10e-3)};
}

Checks Fig9WithoutDeps(const FleetSimulation& fleet) {
  // Paper: 9.1x / 3,223.6x / 8.5x at 64x — BigTable's remote-dominated
  // average yields a bound orders of magnitude above the other two, and
  // the databases stay in single digits.
  double bounds[3];
  for (size_t p = 0; p < 3; ++p) {
    auto curve = model::UniformSpeedupSweep(Input(fleet, p).overall, {64.0},
                                            /*remove_dep=*/true);
    bounds[p] = curve[0].e2e_speedup;
  }
  return {Greater("Fig. 9 BigTable / Spanner bound > 100",
                  bounds[1] / bounds[0], 100),
          Greater("Fig. 9 BigTable / BigQuery bound > 100",
                  bounds[1] / bounds[2], 100),
          Between("Fig. 9 Spanner bound in (3, 20)", bounds[0], 3, 20),
          Between("Fig. 9 BigQuery bound in (3, 30)", bounds[2], 3, 30)};
}

Checks Fig9WithDeps(const FleetSimulation& fleet) {
  // Paper: 2.0x / 2.2x / 1.4x at 64x.
  const double expected[3] = {2.0, 2.2, 1.4};
  Bands bands;
  for (size_t p = 0; p < 3; ++p) {
    bands.Add(GroupMeanSpeedup(fleet, p, 64.0,
                               model::AccelSystemConfig::SyncOnChip(), 0),
              expected[p], 0.45, kNames[p]);
  }
  return {bands.Result("Fig. 9 with deps within 0.45 of 2.0/2.2/1.4")};
}

Checks Fig13InvocationOrdering(const FleetSimulation& fleet) {
  // Sync+off-chip <= sync+on-chip <= chained <= async, everywhere, and
  // chaining recovers nearly all of the asynchronous benefit.
  using model::AccelSystemConfig;
  double order = std::numeric_limits<double>::infinity();
  Bands chained_vs_async;
  for (size_t p = 0; p < 3; ++p) {
    double offload = p == 2 ? 64.0 * (1 << 20) : 32.0 * (1 << 10);
    double off = GroupMeanSpeedup(fleet, p, 8.0,
                                  AccelSystemConfig::SyncOffChip(), offload);
    double on = GroupMeanSpeedup(fleet, p, 8.0,
                                 AccelSystemConfig::SyncOnChip(), offload);
    double chained = GroupMeanSpeedup(
        fleet, p, 8.0, AccelSystemConfig::ChainedOnChip(), offload);
    double async = GroupMeanSpeedup(fleet, p, 8.0,
                                    AccelSystemConfig::AsyncOnChip(), offload);
    order = std::min({order, on + 1e-9 - off, chained + 1e-9 - on,
                      async + 1e-9 - chained});
    chained_vs_async.Add(chained / async, 1.0, 0.01, kNames[p]);
  }
  return {AtLeast("Fig. 13 off <= on <= chained <= async (+1e-9)", order, 0),
          chained_vs_async.Result("Fig. 13 chained / async within 0.01 of 1")};
}

Checks Fig13BigQueryOffChip(const FleetSimulation& fleet) {
  // Paper: BigQuery's large payloads make off-chip acceleration a net
  // slowdown while on-chip still helps; the databases' small payloads
  // keep off-chip close to on-chip (paper: ~1.04x apart).
  using model::AccelSystemConfig;
  double off = GroupMeanSpeedup(fleet, 2, 8.0, AccelSystemConfig::SyncOffChip(),
                                64.0 * (1 << 20));
  double on = GroupMeanSpeedup(fleet, 2, 8.0, AccelSystemConfig::SyncOnChip(),
                               64.0 * (1 << 20));
  double db_off = GroupMeanSpeedup(
      fleet, 0, 8.0, AccelSystemConfig::SyncOffChip(), 32.0 * (1 << 10));
  double db_on = GroupMeanSpeedup(fleet, 0, 8.0,
                                  AccelSystemConfig::SyncOnChip(),
                                  32.0 * (1 << 10));
  Bands gap;
  gap.Add(db_on / db_off, 1.05, 0.1, "");
  return {Less("Fig. 13 BigQuery off-chip speedup < 1", off, 1.0),
          Greater("Fig. 13 BigQuery on-chip speedup > 1", on, 1.0),
          gap.Result("Fig. 13 Spanner on / off within 0.1 of 1.05")};
}

Checks Fig14Setup(const FleetSimulation& fleet) {
  // At 100us setup, sync degrades visibly while chained barely moves.
  using model::AccelSystemConfig;
  double worst_ratio = 0;
  double chained_lead = std::numeric_limits<double>::infinity();
  for (size_t p = 0; p < 2; ++p) {  // databases
    AccelSystemConfig sync = AccelSystemConfig::SyncOnChip();
    AccelSystemConfig chained = AccelSystemConfig::ChainedOnChip();
    double sync_clean = GroupMeanSpeedup(fleet, p, 8.0, sync, 0);
    sync.setup_time = 100e-6;
    chained.setup_time = 100e-6;
    double sync_dirty = GroupMeanSpeedup(fleet, p, 8.0, sync, 0);
    double chained_dirty = GroupMeanSpeedup(fleet, p, 8.0, chained, 0);
    worst_ratio = std::max(worst_ratio, sync_dirty / sync_clean);
    chained_lead = std::min(chained_lead, chained_dirty - sync_dirty);
  }
  return {Less("Fig. 14 sync with / without setup < 0.85", worst_ratio, 0.85),
          Greater("Fig. 14 chained - sync with setup > 0", chained_lead, 0)};
}

Checks Fig15Combined(const FleetSimulation& fleet) {
  // Paper: holistic synchronous acceleration with published accelerators
  // yields 1.5-1.7x; our databases land in/near that band.
  Checks checks;
  for (size_t p = 0; p < 2; ++p) {
    PlatformResult result = fleet.Result(p);
    auto groups = model::BuildGroupWorkloads(
        result, fleet.TracesOf(p), model::PriorStudyCategoriesFor(result.name));
    auto accelerators = model::PriorAcceleratorSet();
    double combined = model::GroupWeightedSpeedup(
        groups, [&](const model::Workload& base) {
          model::Workload workload = base;
          std::vector<model::Component> kept;
          for (const auto& component : workload.components) {
            for (const auto& accelerator : accelerators) {
              if (component.name == accelerator.component_name) {
                model::Component configured = component;
                configured.speedup = accelerator.speedup;
                kept.push_back(configured);
                break;
              }
            }
          }
          workload.components = std::move(kept);
          return model::AccelModel(workload).Speedup();
        });
    checks.push_back(Between(
        StrFormat("Fig. 15 %s combined in (1.35, 1.85)", kNames[p]), combined,
        1.35, 1.85));
  }
  return checks;
}

Checks Table6(const FleetSimulation& fleet) {
  // Paper Table 6 per-platform means: IPC 0.7 / 0.7 / 1.2, branch MPKI
  // 5.5 / 6.2 / 3.5, L1I MPKI 19.0 / 18.2 / 11.3. The recovered values
  // are cycle-weighted compositions of the Table 7 per-category ground
  // truth, so they track the paper loosely (20%) rather than exactly.
  struct Row {
    double ipc, br, l1i;
  };
  const Row rows[] = {{0.7, 5.5, 19.0}, {0.7, 6.2, 18.2}, {1.2, 3.5, 11.3}};
  Bands ipc, br, l1i;
  double positive = std::numeric_limits<double>::infinity();
  for (size_t p = 0; p < 3; ++p) {
    const auto rollup = fleet.Result(p).microarch.overall;
    ipc.Add(rollup.Ipc(), rows[p].ipc, 0.20 * rows[p].ipc, kNames[p]);
    br.Add(rollup.BrMpki(), rows[p].br, 0.20 * rows[p].br, kNames[p]);
    l1i.Add(rollup.L1iMpki(), rows[p].l1i, 0.20 * rows[p].l1i, kNames[p]);
    positive = std::min({positive, rollup.Ipc(), rollup.LlcMpki()});
  }
  // Orderings the paper calls out: BigQuery (analytics) runs at higher
  // IPC and lower front-end miss rates than the two serving platforms.
  auto spanner = fleet.Result(0).microarch.overall;
  auto bigquery = fleet.Result(2).microarch.overall;
  return {ipc.Result("Table 6 IPC within 20%"),
          br.Result("Table 6 branch MPKI within 20%"),
          l1i.Result("Table 6 L1I MPKI within 20%"),
          Greater("Table 6 IPC and LLC MPKI > 0", positive, 0),
          Greater("Table 6 BigQuery - Spanner IPC > 0",
                  bigquery.Ipc() - spanner.Ipc(), 0),
          Greater("Table 6 Spanner - BigQuery L1I MPKI > 0",
                  spanner.L1iMpki() - bigquery.L1iMpki(), 0)};
}

Checks AllFleetClaims(const FleetSimulation& fleet,
                      uint64_t queries_per_platform) {
  Checks all;
  Append(all, QueriesComplete(fleet, queries_per_platform));
  Append(all, BroadCycleShares(fleet));
  Append(all, FineCycleShares(fleet));
  Append(all, MicroarchTable7(fleet));
  Append(all, QueryGroupShares(fleet));
  Append(all, CrossPlatformBalance(fleet));
  Append(all, BigTableRemoteDominated(fleet));
  Append(all, SyncFactors(fleet));
  Append(all, StorageTiers(fleet));
  Append(all, SpannerConsensusSpans(fleet));
  Append(all, BigQueryShuffleSpans(fleet));
  Append(all, Fig9WithoutDeps(fleet));
  Append(all, Fig9WithDeps(fleet));
  Append(all, Fig13InvocationOrdering(fleet));
  Append(all, Fig13BigQueryOffChip(fleet));
  Append(all, Fig14Setup(fleet));
  Append(all, Fig15Combined(fleet));
  Append(all, Table6(fleet));
  return all;
}

::testing::AssertionResult AllHold(const Checks& checks) {
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  bool ok = true;
  std::string failures;
  for (const Check& check : checks) {
    if (check.holds) continue;
    ok = false;
    failures += StrFormat("\n  %s: value %.6g, margin %.6g", check.name.c_str(),
                          check.value, check.margin);
    if (!check.where.empty()) failures += " (worst: " + check.where + ")";
  }
  if (ok) return result;
  return ::testing::AssertionFailure() << "claims that do not hold:"
                                       << failures;
}

}  // namespace hyperprof::claims
