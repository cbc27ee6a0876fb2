#include "profiling/aggregate.h"

#include <gtest/gtest.h>

namespace hyperprof::profiling {
namespace {

AttributedTime Time(double cpu, double io, double remote) {
  AttributedTime time;
  time.cpu = cpu;
  time.io = io;
  time.remote = remote;
  return time;
}

TEST(ClassifyTest, PaperThresholds) {
  EXPECT_EQ(ClassifyQuery(Time(0.7, 0.2, 0.1)), QueryGroup::kCpuHeavy);
  EXPECT_EQ(ClassifyQuery(Time(0.3, 0.5, 0.2)), QueryGroup::kIoHeavy);
  EXPECT_EQ(ClassifyQuery(Time(0.3, 0.2, 0.5)),
            QueryGroup::kRemoteWorkHeavy);
  EXPECT_EQ(ClassifyQuery(Time(0.5, 0.25, 0.25)), QueryGroup::kOthers);
}

TEST(ClassifyTest, CpuCheckedBeforeIoAndRemote) {
  // CPU 61%, IO 39%: CPU heavy even though IO > 30%.
  EXPECT_EQ(ClassifyQuery(Time(0.61, 0.39, 0.0)), QueryGroup::kCpuHeavy);
}

TEST(ClassifyTest, IoCheckedBeforeRemote) {
  EXPECT_EQ(ClassifyQuery(Time(0.2, 0.4, 0.4)), QueryGroup::kIoHeavy);
}

TEST(ClassifyTest, BoundaryIsExclusive) {
  // Exactly 60% CPU is NOT CPU heavy and exactly 30% remote is NOT
  // remote heavy ("more than" thresholds) -> Others.
  EXPECT_EQ(ClassifyQuery(Time(0.6, 0.1, 0.3)), QueryGroup::kOthers);
  // Just past both thresholds flips the classification.
  EXPECT_EQ(ClassifyQuery(Time(0.58, 0.1, 0.32)),
            QueryGroup::kRemoteWorkHeavy);
  EXPECT_EQ(ClassifyQuery(Time(0.62, 0.08, 0.3)), QueryGroup::kCpuHeavy);
}

TEST(ClassifyTest, ZeroTimeIsOthers) {
  EXPECT_EQ(ClassifyQuery(Time(0, 0, 0)), QueryGroup::kOthers);
}

TEST(ClassifyTest, CustomThresholds) {
  GroupThresholds thresholds;
  thresholds.cpu_heavy = 0.4;
  EXPECT_EQ(ClassifyQuery(Time(0.5, 0.25, 0.25), thresholds),
            QueryGroup::kCpuHeavy);
}

QueryTrace TraceWith(double cpu_us, double io_us, double remote_us) {
  QueryTrace trace;
  int64_t t = 0;
  auto add = [&](SpanKind kind, double us) {
    if (us <= 0) return;
    Span span;
    span.kind = kind;
    span.start = SimTime::Nanos(t);
    t += static_cast<int64_t>(us * 1000);
    span.end = SimTime::Nanos(t);
    trace.spans.push_back(span);
  };
  add(SpanKind::kCpu, cpu_us);
  add(SpanKind::kIo, io_us);
  add(SpanKind::kRemoteWork, remote_us);
  trace.end = SimTime::Nanos(t);
  return trace;
}

TEST(E2eBreakdownTest, GroupsAndSharesComputed) {
  std::vector<QueryTrace> traces;
  traces.push_back(TraceWith(90, 5, 5));    // CPU heavy
  traces.push_back(TraceWith(90, 5, 5));    // CPU heavy
  traces.push_back(TraceWith(10, 85, 5));   // IO heavy
  traces.push_back(TraceWith(10, 5, 85));   // remote heavy
  E2eBreakdownReport report = ComputeE2eBreakdown(traces);
  EXPECT_EQ(report.groups[0].query_count, 2u);
  EXPECT_EQ(report.groups[1].query_count, 1u);
  EXPECT_EQ(report.groups[2].query_count, 1u);
  EXPECT_EQ(report.groups[3].query_count, 0u);
  EXPECT_DOUBLE_EQ(report.QueryShare(QueryGroup::kCpuHeavy), 0.5);
  EXPECT_DOUBLE_EQ(report.QueryShare(QueryGroup::kIoHeavy), 0.25);
  EXPECT_EQ(report.overall.query_count, 4u);
}

TEST(E2eBreakdownTest, TimeWeightedVsQueryWeighted) {
  std::vector<QueryTrace> traces;
  // One enormous remote-bound query and many small CPU-bound ones.
  traces.push_back(TraceWith(10, 0, 10000));
  for (int i = 0; i < 9; ++i) traces.push_back(TraceWith(100, 0, 0));
  E2eBreakdownReport report = ComputeE2eBreakdown(traces);
  // Time-weighted: remote dominates.
  EXPECT_GT(report.overall.Fractions().remote, 0.9);
  // Query-weighted: CPU dominates (9 of 10 queries are pure CPU).
  EXPECT_GT(report.overall.MeanQueryFractions().cpu, 0.89);
}

TEST(E2eBreakdownTest, GroupFractionsSumToOne) {
  std::vector<QueryTrace> traces;
  traces.push_back(TraceWith(50, 30, 20));
  E2eBreakdownReport report = ComputeE2eBreakdown(traces);
  AttributedTime fractions = report.overall.Fractions();
  EXPECT_NEAR(fractions.cpu + fractions.io + fractions.remote, 1.0, 1e-9);
}

TEST(E2eBreakdownTest, EmptyTracesYieldEmptyReport) {
  E2eBreakdownReport report = ComputeE2eBreakdown({});
  EXPECT_EQ(report.overall.query_count, 0u);
  EXPECT_EQ(report.QueryShare(QueryGroup::kCpuHeavy), 0.0);
}

class CycleBreakdownTest : public ::testing::Test {
 protected:
  CycleBreakdownTest()
      : registry_(BuildFleetRegistry()),
        profiler_(SimTime::Micros(10), 3e9, Rng(1)) {}

  void Record(const std::string& symbol, int millis) {
    MicroarchProfile profile;
    profile.ipc = 1.0;
    profiler_.RecordActivity(profiler_.InternSymbol(symbol),
                             SimTime::Millis(millis), profile);
  }

  FunctionRegistry registry_;
  CpuProfiler profiler_;
};

TEST_F(CycleBreakdownTest, FractionsTrackRecordedTime) {
  Record("snappylike::RawCompress", 30);   // Compression (DC tax)
  Record("paxos::Proposer::Propose", 50);  // Consensus (core)
  Record("do_syscall_64", 20);             // OS (system tax)
  CycleBreakdownReport report =
      ComputeCycleBreakdown(profiler_, registry_);
  EXPECT_NEAR(report.BroadFraction(BroadCategory::kCoreCompute), 0.5, 0.02);
  EXPECT_NEAR(report.BroadFraction(BroadCategory::kDatacenterTax), 0.3,
              0.02);
  EXPECT_NEAR(report.BroadFraction(BroadCategory::kSystemTax), 0.2, 0.02);
  EXPECT_NEAR(report.FineFractionOfTotal(FnCategory::kCompression), 0.3,
              0.02);
  EXPECT_NEAR(report.FineFractionWithinBroad(FnCategory::kCompression), 1.0,
              1e-9);
}

TEST_F(CycleBreakdownTest, UnknownSymbolsAreUncategorized) {
  Record("totally::unknown::fn", 10);
  CycleBreakdownReport report =
      ComputeCycleBreakdown(profiler_, registry_);
  EXPECT_NEAR(
      report.FineFractionOfTotal(FnCategory::kUncategorizedCore), 1.0,
      1e-9);
}

TEST_F(CycleBreakdownTest, BroadFractionsSumToOne) {
  Record("snappylike::RawCompress", 5);
  Record("std::sort", 5);
  Record("exec::HashJoinProbe::Probe", 5);
  CycleBreakdownReport report =
      ComputeCycleBreakdown(profiler_, registry_);
  double sum = report.BroadFraction(BroadCategory::kCoreCompute) +
               report.BroadFraction(BroadCategory::kDatacenterTax) +
               report.BroadFraction(BroadCategory::kSystemTax);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(CycleBreakdownTest, MicroarchReportSeparatesBroadCategories) {
  MicroarchProfile fast;
  fast.ipc = 1.4;
  MicroarchProfile slow;
  slow.ipc = 0.6;
  profiler_.RecordActivity(profiler_.InternSymbol("exec::HashJoinProbe::Probe"),
                           SimTime::Millis(40), fast);
  profiler_.RecordActivity(profiler_.InternSymbol("snappylike::RawCompress"),
                           SimTime::Millis(40), slow);
  MicroarchReport report = ComputeMicroarchReport(profiler_, registry_);
  EXPECT_NEAR(report.by_broad[0].Ipc(), 1.4, 0.05);  // core compute
  EXPECT_NEAR(report.by_broad[1].Ipc(), 0.6, 0.05);  // DC tax
  EXPECT_NEAR(report.overall.Ipc(), 1.0, 0.05);
}

TEST(PerTypeBreakdownTest, GroupsByTypeAndSortsByTotalTime) {
  NameInterner names;
  std::vector<QueryTrace> traces;
  QueryTrace big = TraceWith(1000, 500, 0);
  big.query_type = names.Intern("scan");
  QueryTrace small_a = TraceWith(10, 0, 0);
  small_a.query_type = names.Intern("point");
  QueryTrace small_b = TraceWith(20, 0, 0);
  small_b.query_type = names.Intern("point");
  traces = {small_a, big, small_b};
  auto rows = ComputePerTypeBreakdown(traces, names);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].query_type, "scan");  // largest total first
  EXPECT_EQ(rows[0].query_type_id, names.Find("scan"));
  EXPECT_EQ(rows[0].aggregate.query_count, 1u);
  EXPECT_EQ(rows[1].query_type, "point");
  EXPECT_EQ(rows[1].aggregate.query_count, 2u);
  EXPECT_NEAR(rows[1].aggregate.time.cpu, 30e-6, 1e-12);
  EXPECT_NEAR(rows[1].aggregate.MeanQueryFractions().cpu, 1.0, 1e-12);
}

TEST(PerTypeBreakdownTest, EmptyTraces) {
  NameInterner names;
  EXPECT_TRUE(ComputePerTypeBreakdown({}, names).empty());
}

TEST(BreakdownAccumulatorTest, StreamingMatchesBatchBitForBit) {
  NameInterner names;
  std::vector<QueryTrace> traces;
  traces.push_back(TraceWith(90, 5, 5));
  traces.push_back(TraceWith(10, 85, 5));
  traces.push_back(TraceWith(10, 5, 85));
  traces.push_back(TraceWith(33, 33, 34));
  traces[0].query_type = names.Intern("a");
  traces[1].query_type = names.Intern("b");
  traces[2].query_type = names.Intern("a");
  traces[3].query_type = names.Intern("c");

  BreakdownAccumulator acc;
  for (const QueryTrace& trace : traces) acc.Fold(trace);

  E2eBreakdownReport batch = ComputeE2eBreakdown(traces);
  for (size_t g = 0; g < kNumQueryGroups; ++g) {
    EXPECT_EQ(acc.e2e().groups[g].query_count, batch.groups[g].query_count);
    EXPECT_EQ(acc.e2e().groups[g].time.cpu, batch.groups[g].time.cpu);
    EXPECT_EQ(acc.e2e().groups[g].fraction_sum.io,
              batch.groups[g].fraction_sum.io);
  }
  EXPECT_EQ(acc.e2e().overall.time.remote, batch.overall.time.remote);

  auto streaming_rows = acc.TypeRows(names);
  auto batch_rows = ComputePerTypeBreakdown(traces, names);
  ASSERT_EQ(streaming_rows.size(), batch_rows.size());
  for (size_t i = 0; i < batch_rows.size(); ++i) {
    EXPECT_EQ(streaming_rows[i].query_type, batch_rows[i].query_type);
    EXPECT_EQ(streaming_rows[i].aggregate.time.cpu,
              batch_rows[i].aggregate.time.cpu);
    EXPECT_EQ(streaming_rows[i].aggregate.fraction_sum.remote,
              batch_rows[i].aggregate.fraction_sum.remote);
    EXPECT_EQ(streaming_rows[i].aggregate.query_count,
              batch_rows[i].aggregate.query_count);
  }

  EXPECT_EQ(acc.EstimatedSyncFactor(), EstimateSyncFactor(traces));
  EXPECT_EQ(acc.traces_folded(), traces.size());
}

TEST(BreakdownAccumulatorTest, EmptyAccumulatorDefaults) {
  NameInterner names;
  BreakdownAccumulator acc;
  EXPECT_EQ(acc.e2e().overall.query_count, 0u);
  EXPECT_TRUE(acc.TypeRows(names).empty());
  EXPECT_DOUBLE_EQ(acc.EstimatedSyncFactor(), 1.0);
}

TEST(SyncFactorTest, SerialSpansGiveFOne) {
  QueryTrace trace = TraceWith(100, 100, 0);
  EXPECT_DOUBLE_EQ(EstimateSyncFactor({trace}), 1.0);
}

TEST(SyncFactorTest, FullOverlapGivesFZero) {
  QueryTrace trace;
  Span cpu;
  cpu.kind = SpanKind::kCpu;
  cpu.start = SimTime::Zero();
  cpu.end = SimTime::Micros(100);
  Span io;
  io.kind = SpanKind::kIo;
  io.start = SimTime::Zero();
  io.end = SimTime::Micros(100);
  trace.spans = {cpu, io};
  EXPECT_DOUBLE_EQ(EstimateSyncFactor({trace}), 0.0);
}

TEST(SyncFactorTest, HalfOverlap) {
  QueryTrace trace;
  Span cpu;
  cpu.kind = SpanKind::kCpu;
  cpu.start = SimTime::Zero();
  cpu.end = SimTime::Micros(100);
  Span io;
  io.kind = SpanKind::kIo;
  io.start = SimTime::Micros(50);
  io.end = SimTime::Micros(150);
  trace.spans = {cpu, io};
  // Overlap 50us over min(100,100) -> f = 0.5.
  EXPECT_DOUBLE_EQ(EstimateSyncFactor({trace}), 0.5);
}

TEST(SyncFactorTest, SameKindOverlapDoesNotCount) {
  // Two parallel IO spans and a disjoint CPU span: f must be 1.
  QueryTrace trace;
  Span cpu;
  cpu.kind = SpanKind::kCpu;
  cpu.start = SimTime::Zero();
  cpu.end = SimTime::Micros(100);
  Span io1;
  io1.kind = SpanKind::kIo;
  io1.start = SimTime::Micros(100);
  io1.end = SimTime::Micros(200);
  Span io2 = io1;
  trace.spans = {cpu, io1, io2};
  EXPECT_DOUBLE_EQ(EstimateSyncFactor({trace}), 1.0);
}

TEST(SyncFactorTest, NoTracesDefaultsToOne) {
  EXPECT_DOUBLE_EQ(EstimateSyncFactor({}), 1.0);
}

TEST(QueryGroupTest, Names) {
  EXPECT_STREQ(QueryGroupName(QueryGroup::kCpuHeavy), "CPU Heavy");
  EXPECT_STREQ(QueryGroupName(QueryGroup::kRemoteWorkHeavy),
               "Remote Work Heavy");
}

TEST(ResilienceReportTest, CountsAnnotationSpansAndBucketsExtras) {
  NameInterner names;
  NameId io = names.Intern("dfs.read");
  NameId retry = names.Intern("dfs.retry");
  NameId hedge = names.Intern("dfs.hedge");
  NameId error = names.Intern("dfs.error");

  auto span = [](SpanKind kind, NameId name, double start, double end) {
    Span s;
    s.kind = kind;
    s.name = name;
    s.start = SimTime::FromSeconds(start);
    s.end = SimTime::FromSeconds(end);
    return s;
  };
  std::vector<QueryTrace> traces(3);
  // Clean query: one IO span, no annotations.
  traces[0].spans.push_back(span(SpanKind::kIo, io, 0.0, 1.0));
  // One retried IO: the first annotation carries the wasted extent, the
  // second extra attempt is a zero-length marker (engine convention).
  traces[1].spans.push_back(span(SpanKind::kIo, io, 0.0, 3.0));
  traces[1].spans.push_back(span(SpanKind::kIo, retry, 1.0, 3.0));
  traces[1].spans.push_back(span(SpanKind::kIo, retry, 3.0, 3.0));
  // One hedged IO plus one IO that exhausted its policy.
  traces[2].spans.push_back(span(SpanKind::kIo, io, 0.0, 1.0));
  traces[2].spans.push_back(span(SpanKind::kIo, hedge, 0.5, 1.0));
  traces[2].spans.push_back(span(SpanKind::kIo, error, 1.0, 1.0));

  ResilienceReport report = ComputeResilienceReport(traces, names);
  EXPECT_EQ(report.traced_queries, 3u);
  EXPECT_EQ(report.queries_with_faulted_io, 2u);
  EXPECT_EQ(report.retry_spans, 2u);
  EXPECT_EQ(report.hedge_spans, 1u);
  EXPECT_EQ(report.error_spans, 1u);
  EXPECT_DOUBLE_EQ(report.wasted_seconds, 2.0 + 0.0 + 0.5);
  EXPECT_EQ(report.extra_attempts_histogram[0], 1u);  // clean query
  EXPECT_EQ(report.extra_attempts_histogram[1], 1u);  // hedged query
  EXPECT_EQ(report.extra_attempts_histogram[2], 1u);  // double-retried
  EXPECT_DOUBLE_EQ(report.MeanWastedPerFaultedQuery(), 2.5 / 2.0);
}

TEST(ResilienceReportTest, MissingAnnotationNamesYieldZeroReport) {
  NameInterner names;  // "dfs.retry" & co never interned (pre-fault engine)
  std::vector<QueryTrace> traces(2);
  traces[0].spans.push_back(Span{});
  ResilienceReport report = ComputeResilienceReport(traces, names);
  EXPECT_EQ(report.traced_queries, 2u);
  EXPECT_EQ(report.queries_with_faulted_io, 0u);
  EXPECT_EQ(report.retry_spans + report.hedge_spans + report.error_spans,
            0u);
  EXPECT_EQ(report.wasted_seconds, 0.0);
  EXPECT_EQ(report.MeanWastedPerFaultedQuery(), 0.0);
}

}  // namespace
}  // namespace hyperprof::profiling
