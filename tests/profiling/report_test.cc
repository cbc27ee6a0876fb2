#include "profiling/report.h"

#include <gtest/gtest.h>

namespace hyperprof::profiling {
namespace {

TEST(ReportTest, E2eReportRendersAllGroups) {
  E2eBreakdownReport report;
  report.groups[0].time.cpu = 1.0;
  report.groups[0].fraction_sum.cpu = 1.0;
  report.groups[0].query_count = 1;
  report.overall = report.groups[0];
  std::string out = RenderE2eReport(report).ToString();
  EXPECT_NE(out.find("CPU Heavy"), std::string::npos);
  EXPECT_NE(out.find("Remote Work Heavy"), std::string::npos);
  EXPECT_NE(out.find("Overall (query-weighted)"), std::string::npos);
  EXPECT_NE(out.find("Overall (time-weighted)"), std::string::npos);
}

TEST(ReportTest, BroadCycleReportListsThreeClasses) {
  CycleBreakdownReport report;
  report.cycles_by_category[static_cast<size_t>(FnCategory::kRead)] = 50;
  report.cycles_by_category[static_cast<size_t>(FnCategory::kRpc)] = 30;
  report.cycles_by_category[static_cast<size_t>(FnCategory::kStl)] = 20;
  std::string out = RenderBroadCycleReport(report).ToString();
  EXPECT_NE(out.find("Core Compute"), std::string::npos);
  EXPECT_NE(out.find("50.0"), std::string::npos);
  EXPECT_NE(out.find("30.0"), std::string::npos);
}

TEST(ReportTest, FineCycleReportSkipsEmptyCategories) {
  CycleBreakdownReport report;
  report.cycles_by_category[static_cast<size_t>(FnCategory::kProtobuf)] =
      10;
  std::string out =
      RenderFineCycleReport(report, BroadCategory::kDatacenterTax)
          .ToString();
  EXPECT_NE(out.find("Protobuf"), std::string::npos);
  EXPECT_EQ(out.find("Compression"), std::string::npos);
}

TEST(ReportTest, MicroarchReportHasFourScopes) {
  MicroarchReport report;
  CounterDelta delta;
  delta.cycles = 1000;
  delta.instructions = 700;
  report.overall.Add(delta);
  report.by_broad[0].Add(delta);
  std::string out = RenderMicroarchReport(report).ToString();
  EXPECT_NE(out.find("Overall"), std::string::npos);
  EXPECT_NE(out.find("System Taxes"), std::string::npos);
  EXPECT_NE(out.find("0.70"), std::string::npos);
}

TEST(ReportTest, TopSymbolsRankedByCycles) {
  CpuProfiler profiler(SimTime::Micros(10), 3e9, Rng(1));
  MicroarchProfile profile;
  profile.ipc = 1.0;
  profiler.RecordActivity(profiler.InternSymbol("snappylike::RawCompress"),
                          SimTime::Millis(30), profile);
  profiler.RecordActivity(profiler.InternSymbol("do_syscall_64"),
                          SimTime::Millis(10), profile);
  FunctionRegistry registry = BuildFleetRegistry();
  std::string out = RenderTopSymbols(profiler, registry, 10).ToString();
  size_t compress_pos = out.find("snappylike::RawCompress");
  size_t syscall_pos = out.find("do_syscall_64");
  ASSERT_NE(compress_pos, std::string::npos);
  ASSERT_NE(syscall_pos, std::string::npos);
  EXPECT_LT(compress_pos, syscall_pos);  // more cycles -> ranked first
  EXPECT_NE(out.find("Compression"), std::string::npos);
}

TEST(ReportTest, TopSymbolsHonorsLimit) {
  CpuProfiler profiler(SimTime::Micros(10), 3e9, Rng(2));
  MicroarchProfile profile;
  profile.ipc = 1.0;
  for (int i = 0; i < 10; ++i) {
    profiler.RecordActivity(profiler.InternSymbol("fn" + std::to_string(i)),
                            SimTime::Millis(5), profile);
  }
  FunctionRegistry registry;
  TextTable table = RenderTopSymbols(profiler, registry, 3);
  // Header + separator + 3 rows.
  std::string out = table.ToString();
  int lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5);
}

}  // namespace
}  // namespace hyperprof::profiling
