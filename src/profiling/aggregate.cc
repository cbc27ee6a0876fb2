#include "profiling/aggregate.h"

#include <algorithm>

namespace hyperprof::profiling {

const char* QueryGroupName(QueryGroup group) {
  switch (group) {
    case QueryGroup::kCpuHeavy: return "CPU Heavy";
    case QueryGroup::kIoHeavy: return "IO Heavy";
    case QueryGroup::kRemoteWorkHeavy: return "Remote Work Heavy";
    case QueryGroup::kOthers: return "Others";
    case QueryGroup::kNumGroups: break;
  }
  return "unknown";
}

QueryGroup ClassifyQuery(const AttributedTime& time,
                         const GroupThresholds& thresholds) {
  double total = time.Total();
  if (total <= 0) return QueryGroup::kOthers;
  if (time.cpu / total > thresholds.cpu_heavy) return QueryGroup::kCpuHeavy;
  if (time.io / total > thresholds.io_heavy) return QueryGroup::kIoHeavy;
  if (time.remote / total > thresholds.remote_heavy) {
    return QueryGroup::kRemoteWorkHeavy;
  }
  return QueryGroup::kOthers;
}

AttributedTime GroupAggregate::Fractions() const {
  AttributedTime fractions;
  double total = time.Total();
  if (total <= 0) return fractions;
  fractions.cpu = time.cpu / total;
  fractions.io = time.io / total;
  fractions.remote = time.remote / total;
  return fractions;
}

AttributedTime GroupAggregate::MeanQueryFractions() const {
  AttributedTime mean;
  if (query_count == 0) return mean;
  double n = static_cast<double>(query_count);
  mean.cpu = fraction_sum.cpu / n;
  mean.io = fraction_sum.io / n;
  mean.remote = fraction_sum.remote / n;
  return mean;
}

double E2eBreakdownReport::QueryShare(QueryGroup group) const {
  if (overall.query_count == 0) return 0.0;
  return static_cast<double>(groups[static_cast<size_t>(group)].query_count) /
         static_cast<double>(overall.query_count);
}

namespace {

/**
 * The single e2e fold body shared by the streaming accumulator and the
 * batch ComputeE2eBreakdown: identical operation order guarantees
 * bit-identical doubles between the two paths.
 */
void FoldE2e(const AttributedTime& time, const GroupThresholds& thresholds,
             E2eBreakdownReport& report) {
  QueryGroup group = ClassifyQuery(time, thresholds);
  AttributedTime fractions;
  double total = time.Total();
  if (total > 0) {
    fractions.cpu = time.cpu / total;
    fractions.io = time.io / total;
    fractions.remote = time.remote / total;
  }
  GroupAggregate& agg = report.groups[static_cast<size_t>(group)];
  agg.time.cpu += time.cpu;
  agg.time.io += time.io;
  agg.time.remote += time.remote;
  agg.fraction_sum.cpu += fractions.cpu;
  agg.fraction_sum.io += fractions.io;
  agg.fraction_sum.remote += fractions.remote;
  ++agg.query_count;
  report.overall.time.cpu += time.cpu;
  report.overall.time.io += time.io;
  report.overall.time.remote += time.remote;
  report.overall.fraction_sum.cpu += fractions.cpu;
  report.overall.fraction_sum.io += fractions.io;
  report.overall.fraction_sum.remote += fractions.remote;
  ++report.overall.query_count;
}

/** Shared per-type fold body (see FoldE2e). */
void FoldTypeAggregate(GroupAggregate& agg, const AttributedTime& time) {
  agg.time.cpu += time.cpu;
  agg.time.io += time.io;
  agg.time.remote += time.remote;
  double total = time.Total();
  if (total > 0) {
    agg.fraction_sum.cpu += time.cpu / total;
    agg.fraction_sum.io += time.io / total;
    agg.fraction_sum.remote += time.remote / total;
  }
  ++agg.query_count;
}

/**
 * O(1) row lookup for per-type aggregation: a flat NameId-indexed map into
 * a first-seen-ordered row vector. Replaces the former linear string scan,
 * which made per-type aggregation O(traces * types) with a string compare
 * in the inner loop.
 */
TypeBreakdownRow& FindTypeRow(std::vector<TypeBreakdownRow>& rows,
                              std::vector<int32_t>& row_of_type,
                              NameId type_id) {
  if (type_id >= row_of_type.size()) {
    row_of_type.resize(type_id + 1, -1);
  }
  int32_t index = row_of_type[type_id];
  if (index < 0) {
    index = static_cast<int32_t>(rows.size());
    row_of_type[type_id] = index;
    rows.push_back(TypeBreakdownRow{});
    rows.back().query_type_id = type_id;
  }
  return rows[static_cast<size_t>(index)];
}

void SortTypeRowsDescending(std::vector<TypeBreakdownRow>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const TypeBreakdownRow& a, const TypeBreakdownRow& b) {
              return a.aggregate.time.Total() > b.aggregate.time.Total();
            });
}

void ResolveTypeRowNames(std::vector<TypeBreakdownRow>& rows,
                         const NameInterner& names) {
  for (TypeBreakdownRow& row : rows) {
    row.query_type = std::string(names.Name(row.query_type_id));
  }
}

}  // namespace

E2eBreakdownReport ComputeE2eBreakdown(const std::vector<QueryTrace>& traces,
                                       const AttributionPolicy& policy,
                                       const GroupThresholds& thresholds) {
  E2eBreakdownReport report;
  AttributionScratch scratch;
  for (const QueryTrace& trace : traces) {
    AttributedTime time = AttributeTrace(trace, policy, scratch);
    FoldE2e(time, thresholds, report);
  }
  return report;
}

std::vector<TypeBreakdownRow> ComputePerTypeBreakdown(
    const std::vector<QueryTrace>& traces, const NameInterner& names,
    const AttributionPolicy& policy) {
  std::vector<TypeBreakdownRow> rows;
  std::vector<int32_t> row_of_type;
  AttributionScratch scratch;
  for (const QueryTrace& trace : traces) {
    AttributedTime time = AttributeTrace(trace, policy, scratch);
    FoldTypeAggregate(
        FindTypeRow(rows, row_of_type, trace.query_type).aggregate, time);
  }
  ResolveTypeRowNames(rows, names);
  SortTypeRowsDescending(rows);
  return rows;
}

double ResilienceReport::MeanWastedPerFaultedQuery() const {
  return queries_with_faulted_io == 0
             ? 0.0
             : wasted_seconds /
                   static_cast<double>(queries_with_faulted_io);
}

ResilienceReport ComputeResilienceReport(
    const std::vector<QueryTrace>& traces, const NameInterner& names) {
  ResilienceReport report;
  report.traced_queries = traces.size();
  NameId retry_id = names.Find("dfs.retry");
  NameId hedge_id = names.Find("dfs.hedge");
  NameId error_id = names.Find("dfs.error");
  if (retry_id == kInvalidNameId && hedge_id == kInvalidNameId &&
      error_id == kInvalidNameId) {
    return report;  // engine predates / never enabled fault injection
  }
  for (const QueryTrace& trace : traces) {
    uint64_t extras = 0;
    bool faulted = false;
    for (const Span& span : trace.spans) {
      if (span.name == retry_id && retry_id != kInvalidNameId) {
        ++report.retry_spans;
        ++extras;
        faulted = true;
        report.wasted_seconds += (span.end - span.start).ToSeconds();
      } else if (span.name == hedge_id && hedge_id != kInvalidNameId) {
        ++report.hedge_spans;
        ++extras;
        faulted = true;
        report.wasted_seconds += (span.end - span.start).ToSeconds();
      } else if (span.name == error_id && error_id != kInvalidNameId) {
        ++report.error_spans;
        faulted = true;
      }
    }
    if (faulted) ++report.queries_with_faulted_io;
    size_t bucket = static_cast<size_t>(
        std::min<uint64_t>(extras, report.extra_attempts_histogram.size() - 1));
    ++report.extra_attempts_histogram[bucket];
  }
  return report;
}

double CycleBreakdownReport::TotalCycles() const {
  double total = 0;
  for (double cycles : cycles_by_category) total += cycles;
  return total;
}

double CycleBreakdownReport::BroadCycles(BroadCategory broad) const {
  double total = 0;
  for (size_t i = 0; i < kNumFnCategories; ++i) {
    if (BroadOf(static_cast<FnCategory>(i)) == broad) {
      total += cycles_by_category[i];
    }
  }
  return total;
}

double CycleBreakdownReport::BroadFraction(BroadCategory broad) const {
  double total = TotalCycles();
  return total <= 0 ? 0.0 : BroadCycles(broad) / total;
}

double CycleBreakdownReport::FineFractionWithinBroad(
    FnCategory category) const {
  double broad_total = BroadCycles(BroadOf(category));
  return broad_total <= 0
             ? 0.0
             : cycles_by_category[static_cast<size_t>(category)] / broad_total;
}

double CycleBreakdownReport::FineFractionOfTotal(FnCategory category) const {
  double total = TotalCycles();
  return total <= 0
             ? 0.0
             : cycles_by_category[static_cast<size_t>(category)] / total;
}

CycleBreakdownReport ComputeCycleBreakdown(const CpuProfiler& profiler,
                                           const FunctionRegistry& registry) {
  // Integer sums, converted to double once. Below 2^53 cycles per
  // category that equals a running double sum over samples bit for bit
  // (every partial sum is an exact integer); above it, the result still
  // does not depend on fold order.
  std::array<uint64_t, kNumFnCategories> cycles{};
  profiler.samples().ForEach(
      [&](std::string_view symbol, const SymbolSamples& row) {
        FnCategory category = registry.Classify(std::string(symbol));
        cycles[static_cast<size_t>(category)] += row.counters.cycles();
      });
  CycleBreakdownReport report;
  for (size_t i = 0; i < kNumFnCategories; ++i) {
    report.cycles_by_category[i] = static_cast<double>(cycles[i]);
  }
  return report;
}

MicroarchReport ComputeMicroarchReport(const CpuProfiler& profiler,
                                       const FunctionRegistry& registry) {
  MicroarchReport report;
  profiler.samples().ForEach(
      [&](std::string_view symbol, const SymbolSamples& row) {
        FnCategory category = registry.Classify(std::string(symbol));
        report.overall.Merge(row.counters);
        report.by_broad[static_cast<size_t>(BroadOf(category))].Merge(
            row.counters);
      });
  return report;
}

namespace {

/** Total covered seconds of a set of [start, end) intervals. */
double IntervalUnionSeconds(std::vector<std::pair<double, double>>& spans) {
  if (spans.empty()) return 0.0;
  std::sort(spans.begin(), spans.end());
  double covered = 0;
  double cur_start = spans[0].first;
  double cur_end = spans[0].second;
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first > cur_end) {
      covered += cur_end - cur_start;
      cur_start = spans[i].first;
      cur_end = spans[i].second;
    } else {
      cur_end = std::max(cur_end, spans[i].second);
    }
  }
  covered += cur_end - cur_start;
  return covered;
}

/**
 * Folds one trace into the sync-factor estimate. Shared between the batch
 * EstimateSyncFactor and the streaming accumulator (bit-identical paths);
 * the span buffers are caller-owned scratch, cleared here and recycled
 * across traces.
 */
void FoldSyncFactor(const QueryTrace& trace,
                    std::vector<std::pair<double, double>>& cpu_spans,
                    std::vector<std::pair<double, double>>& dep_spans,
                    std::vector<std::pair<double, double>>& all_spans,
                    double& weighted_f, double& weight) {
  cpu_spans.clear();
  dep_spans.clear();
  all_spans.clear();
  for (const Span& span : trace.spans) {
    double start = span.start.ToSeconds();
    double end = span.end.ToSeconds();
    if (end <= start) continue;
    all_spans.emplace_back(start, end);
    if (span.kind == SpanKind::kCpu) {
      cpu_spans.emplace_back(start, end);
    } else {
      dep_spans.emplace_back(start, end);
    }
  }
  double union_cpu = IntervalUnionSeconds(cpu_spans);
  double union_dep = IntervalUnionSeconds(dep_spans);
  double union_all = IntervalUnionSeconds(all_spans);
  double total = union_cpu + union_dep;
  if (total <= 0) return;
  // Overlap between the CPU cover and the dependency cover.
  double overlap = std::max(0.0, union_cpu + union_dep - union_all);
  double denom = std::min(union_cpu, union_dep);
  double f = denom <= 0 ? 1.0
                        : std::clamp(1.0 - overlap / denom, 0.0, 1.0);
  weighted_f += f * total;
  weight += total;
}

}  // namespace

double EstimateSyncFactor(const std::vector<QueryTrace>& traces,
                          const AttributionPolicy& policy) {
  (void)policy;  // the estimator works on span unions, not attribution
  double weighted_f = 0;
  double weight = 0;
  std::vector<std::pair<double, double>> cpu_spans, dep_spans, all_spans;
  for (const QueryTrace& trace : traces) {
    FoldSyncFactor(trace, cpu_spans, dep_spans, all_spans, weighted_f,
                   weight);
  }
  return weight <= 0 ? 1.0 : weighted_f / weight;
}

BreakdownAccumulator::BreakdownAccumulator(const AttributionPolicy& policy,
                                           const GroupThresholds& thresholds)
    : policy_(policy), thresholds_(thresholds) {}

AttributedTime BreakdownAccumulator::Fold(const QueryTrace& trace) {
  AttributedTime time = AttributeTrace(trace, policy_, scratch_);
  FoldE2e(time, thresholds_, e2e_);
  FoldTypeAggregate(
      FindTypeRow(type_rows_, row_of_type_, trace.query_type).aggregate,
      time);
  FoldSyncFactor(trace, cpu_spans_, dep_spans_, all_spans_,
                 sync_weighted_f_, sync_weight_);
  ++traces_folded_;
  return time;
}

std::vector<TypeBreakdownRow> BreakdownAccumulator::TypeRows(
    const NameInterner& names) const {
  std::vector<TypeBreakdownRow> rows = type_rows_;
  ResolveTypeRowNames(rows, names);
  SortTypeRowsDescending(rows);
  return rows;
}

double BreakdownAccumulator::EstimatedSyncFactor() const {
  return sync_weight_ <= 0 ? 1.0 : sync_weighted_f_ / sync_weight_;
}

}  // namespace hyperprof::profiling
