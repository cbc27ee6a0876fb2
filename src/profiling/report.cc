#include "profiling/report.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace hyperprof::profiling {

TextTable RenderE2eReport(const E2eBreakdownReport& report) {
  TextTable table({"Query group", "CPU%", "IO%", "Remote%", "% of queries"});
  for (size_t g = 0; g < kNumQueryGroups; ++g) {
    auto group = static_cast<QueryGroup>(g);
    auto fractions = report.groups[g].MeanQueryFractions();
    table.AddRow(QueryGroupName(group),
                 {fractions.cpu * 100, fractions.io * 100,
                  fractions.remote * 100, report.QueryShare(group) * 100},
                 "%.1f");
  }
  auto mean = report.overall.MeanQueryFractions();
  table.AddRow("Overall (query-weighted)",
               {mean.cpu * 100, mean.io * 100, mean.remote * 100, 100.0},
               "%.1f");
  auto weighted = report.overall.Fractions();
  table.AddRow("Overall (time-weighted)",
               {weighted.cpu * 100, weighted.io * 100, weighted.remote * 100,
                100.0},
               "%.1f");
  return table;
}

TextTable RenderBroadCycleReport(const CycleBreakdownReport& report) {
  TextTable table({"Broad category", "% of cycles"});
  for (int b = 0; b < 3; ++b) {
    auto broad = static_cast<BroadCategory>(b);
    table.AddRow(BroadCategoryName(broad),
                 {report.BroadFraction(broad) * 100}, "%.1f");
  }
  return table;
}

TextTable RenderFineCycleReport(const CycleBreakdownReport& report,
                                BroadCategory broad) {
  TextTable table({std::string(BroadCategoryName(broad)) + " category",
                   "% within broad", "% of all cycles"});
  for (FnCategory category : CategoriesOf(broad)) {
    double within = report.FineFractionWithinBroad(category);
    if (within <= 0) continue;
    table.AddRow(FnCategoryName(category),
                 {within * 100, report.FineFractionOfTotal(category) * 100},
                 "%.1f");
  }
  return table;
}

TextTable RenderMicroarchReport(const MicroarchReport& report) {
  TextTable table(
      {"Scope", "IPC", "BR", "L1I", "L2I", "LLC", "ITLB", "DTLB-LD"});
  auto add = [&table](const std::string& label,
                      const CounterRollup& rollup) {
    table.AddRow(label,
                 {rollup.Ipc(), rollup.BrMpki(), rollup.L1iMpki(),
                  rollup.L2iMpki(), rollup.LlcMpki(), rollup.ItlbMpki(),
                  rollup.DtlbLdMpki()},
                 "%.2f");
  };
  add("Overall", report.overall);
  for (int b = 0; b < 3; ++b) {
    add(BroadCategoryName(static_cast<BroadCategory>(b)),
        report.by_broad[b]);
  }
  return table;
}

TextTable RenderResilienceReport(const ResilienceReport& report) {
  TextTable table({"Resilience metric", "Value"});
  auto count_row = [&table](const std::string& label, uint64_t value) {
    table.AddRow({label, StrFormat("%llu",
                                   static_cast<unsigned long long>(value))});
  };
  count_row("Traced queries", report.traced_queries);
  count_row("Queries with faulted IO", report.queries_with_faulted_io);
  count_row("Retry spans", report.retry_spans);
  count_row("Hedge spans", report.hedge_spans);
  count_row("Error spans", report.error_spans);
  table.AddRow("Wasted seconds (total)", {report.wasted_seconds}, "%.6f");
  table.AddRow("Wasted seconds / faulted query",
               {report.MeanWastedPerFaultedQuery()}, "%.6f");
  for (size_t i = 0; i < report.extra_attempts_histogram.size(); ++i) {
    if (report.extra_attempts_histogram[i] == 0) continue;
    std::string label =
        i + 1 == report.extra_attempts_histogram.size()
            ? StrFormat("Queries with >=%zu extra attempts", i)
            : StrFormat("Queries with %zu extra attempts", i);
    count_row(label, report.extra_attempts_histogram[i]);
  }
  return table;
}

TextTable RenderTopSymbols(const CpuProfiler& profiler,
                           const FunctionRegistry& registry, size_t top_n) {
  std::vector<std::pair<std::string_view, uint64_t>> ranked;
  uint64_t total_cycles = 0;
  profiler.samples().ForEach(
      [&](std::string_view symbol, const SymbolSamples& row) {
        ranked.emplace_back(symbol, row.counters.cycles());
        total_cycles += row.counters.cycles();
      });
  // Equal cycles rank by name, so the table does not depend on the order
  // in which symbols were interned.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (ranked.size() > top_n) ranked.resize(top_n);

  TextTable table({"Leaf symbol", "Category", "Cycles%"});
  for (const auto& [name, cycles] : ranked) {
    std::string symbol(name);
    FnCategory category = registry.Classify(symbol);
    double share = total_cycles > 0 ? static_cast<double>(cycles) /
                                          static_cast<double>(total_cycles)
                                    : 0;
    table.AddRow({symbol, FnCategoryName(category),
                  StrFormat("%.2f", share * 100)});
  }
  return table;
}

}  // namespace hyperprof::profiling
