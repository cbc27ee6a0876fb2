#include "platforms/engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "platforms/platforms.h"
#include "profiling/aggregate.h"

namespace hyperprof::platforms {
namespace {

/** Records every request, then hands it to the filesystem. */
class RecordingIoPort : public IoPort {
 public:
  explicit RecordingIoPort(storage::DistributedFileSystem* dfs)
      : direct_(dfs) {}

  void Submit(const IoRequest& request,
              storage::DistributedFileSystem::ReadCallback on_done) override {
    requests.push_back(request);
    direct_.Submit(request, std::move(on_done));
  }

  std::vector<IoRequest> requests;

 private:
  DirectIoPort direct_;
};

/**
 * Requests per lane, in lane order, after checking that each lane's seq
 * counts 0, 1, 2, ... in issue order.
 */
std::vector<uint64_t> RequestsPerLane(const std::vector<IoRequest>& requests) {
  std::map<uint64_t, uint64_t> next_seq;
  for (const IoRequest& request : requests) {
    EXPECT_EQ(request.seq, next_seq[request.lane]++)
        << "lane " << request.lane;
  }
  std::vector<uint64_t> counts;
  for (const auto& [lane, count] : next_seq) {
    EXPECT_EQ(lane, counts.size());
    counts.push_back(count);
  }
  return counts;
}

/** Minimal substrate wired for a single engine. */
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : rpc_(&simulator_, &network_, Rng(2)),
        dfs_(&simulator_, &rpc_, storage::DfsParams(), Rng(3)),
        io_(&dfs_),
        tracer_(1, Rng(4)),  // trace everything
        profiler_(SimTime::Micros(200), 3e9, Rng(5)),
        registry_(profiling::BuildFleetRegistry()) {}

  EngineContext Context() {
    EngineContext context;
    context.simulator = &simulator_;
    context.io = &io_;
    context.rpc = &rpc_;
    context.tracer = &tracer_;
    context.profiler = &profiler_;
    context.registry = &registry_;
    return context;
  }

  /** A simple spec with one deterministic-ish query type. */
  PlatformSpec SimpleSpec() {
    PlatformSpec spec;
    spec.name = "Test";
    spec.compute_mix[static_cast<size_t>(profiling::FnCategory::kRead)] =
        1.0;
    spec.microarch[0].ipc = 1.0;
    spec.microarch[1].ipc = 1.0;
    spec.microarch[2].ipc = 1.0;
    spec.block_space = 1024;
    QueryTypeSpec type;
    type.name = "q";
    type.weight = 1.0;
    type.phases.push_back(PhaseSpec::Compute(0.001, 0.1));
    IoPhaseSpec io;
    io.num_blocks = 2;
    type.phases.push_back(PhaseSpec::Io(io));
    RemotePhaseSpec remote;
    remote.fanout = 2;
    remote.server_seconds_mean = 0.0005;
    type.phases.push_back(PhaseSpec::Remote(remote));
    spec.query_types.push_back(std::move(type));
    return spec;
  }

  sim::Simulator simulator_;
  net::NetworkModel network_;
  net::RpcSystem rpc_;
  storage::DistributedFileSystem dfs_;
  DirectIoPort io_;
  profiling::Tracer tracer_;
  profiling::CpuProfiler profiler_;
  profiling::FunctionRegistry registry_;
};

TEST_F(EngineTest, CompletesAllQueries) {
  PlatformEngine engine(Context(), SimpleSpec(), Rng(7));
  engine.Run(50, 1000.0);
  simulator_.Run();
  EXPECT_EQ(engine.queries_completed(), 50u);
}

TEST_F(EngineTest, RunAbortsOnNonPositiveArrivalRate) {
  // Checked in every build: a zero, negative or NaN rate would make every
  // arrival gap infinite, negative or NaN, the kernel would clamp each
  // arrival to now, and the run would "complete" every query at once.
  PlatformEngine engine(Context(), SimpleSpec(), Rng(7));
  EXPECT_DEATH(engine.Run(200, 0.0), "arrival_rate_qps is 0");
  EXPECT_DEATH(engine.Run(200, -5.0), "arrival_rate_qps is -5");
  EXPECT_DEATH(engine.Run(200, std::nan("")),
               "arrival_rate_qps is -?nan");
}

TEST_F(EngineTest, LaneIsTheGlobalQueryIndex) {
  // A fused Run gives query i lane i, as a sharded one does; ticketed
  // admissions count their own lanes from 0. Every SimpleSpec query
  // issues two reads, so each lane carries seq 0 and 1.
  RecordingIoPort port(&dfs_);
  EngineContext context = Context();
  context.io = &port;
  PlatformEngine engine(context, SimpleSpec(), Rng(7));
  engine.Run(20, 1000.0);
  simulator_.Run();
  EXPECT_EQ(RequestsPerLane(port.requests), std::vector<uint64_t>(20, 2));

  port.requests.clear();
  std::vector<uint64_t> tickets;
  engine.SetServingSink(
      [](void* ctx, uint64_t ticket, SimTime) {
        static_cast<std::vector<uint64_t>*>(ctx)->push_back(ticket);
      },
      &tickets);
  for (uint64_t ticket = 100; ticket < 105; ++ticket) engine.Submit(ticket);
  simulator_.Run();
  EXPECT_EQ(RequestsPerLane(port.requests), std::vector<uint64_t>(5, 2));
  std::sort(tickets.begin(), tickets.end());
  EXPECT_EQ(tickets, (std::vector<uint64_t>{100, 101, 102, 103, 104}));
}

TEST_F(EngineTest, SubmitAbortsOnShardedEngine) {
  // Checked in every build: a sharded engine owns a fixed partition of
  // its Run's queries, so a serving admission has no place in it.
  EngineContext context = Context();
  context.shard_count = 2;
  PlatformEngine engine(context, SimpleSpec(), Rng(7));
  engine.SetServingSink([](void*, uint64_t, SimTime) {}, nullptr);
  EXPECT_DEATH(engine.Submit(1), "serving admission requires a fused engine");
}

TEST_F(EngineTest, SubmitAbortsBeforeServingSink) {
  PlatformEngine engine(Context(), SimpleSpec(), Rng(7));
  EXPECT_DEATH(engine.Submit(1), "called before SetServingSink");
}

TEST_F(EngineTest, EveryTraceHasAllPhaseKinds) {
  PlatformEngine engine(Context(), SimpleSpec(), Rng(7));
  engine.Run(20, 1000.0);
  simulator_.Run();
  ASSERT_EQ(tracer_.traces().size(), 20u);
  for (const auto& trace : tracer_.traces()) {
    bool has_cpu = false, has_io = false, has_remote = false;
    for (const auto& span : trace.spans) {
      switch (span.kind) {
        case profiling::SpanKind::kCpu: has_cpu = true; break;
        case profiling::SpanKind::kIo: has_io = true; break;
        case profiling::SpanKind::kRemoteWork: has_remote = true; break;
      }
      EXPECT_GE(span.start, trace.start);
      EXPECT_LE(span.end, trace.end);
    }
    EXPECT_TRUE(has_cpu);
    EXPECT_TRUE(has_io);
    EXPECT_TRUE(has_remote);
  }
}

TEST_F(EngineTest, SpansAreSequentialForSerialPhases) {
  PlatformEngine engine(Context(), SimpleSpec(), Rng(7));
  engine.Run(5, 1000.0);
  simulator_.Run();
  for (const auto& trace : tracer_.traces()) {
    // Compute span ends before the remote span starts (IO in between).
    SimTime compute_end, remote_start;
    for (const auto& span : trace.spans) {
      if (span.kind == profiling::SpanKind::kCpu) compute_end = span.end;
      if (span.kind == profiling::SpanKind::kRemoteWork) {
        remote_start = span.start;
      }
    }
    EXPECT_LE(compute_end, remote_start);
  }
}

TEST_F(EngineTest, ProfilerReceivesComputeActivities) {
  PlatformEngine engine(Context(), SimpleSpec(), Rng(7));
  engine.Run(50, 1000.0);
  simulator_.Run();
  EXPECT_GT(profiler_.activities_recorded(), 0u);
  // ~50 queries x 1ms = 50ms of CPU time.
  EXPECT_NEAR(profiler_.total_cpu_time().ToSeconds(), 0.05, 0.02);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [this](uint64_t seed) {
    sim::Simulator simulator;
    net::RpcSystem rpc(&simulator, &network_, Rng(2));
    storage::DistributedFileSystem dfs(&simulator, &rpc,
                                       storage::DfsParams(), Rng(3));
    DirectIoPort io(&dfs);
    profiling::Tracer tracer(1, Rng(4));
    profiling::CpuProfiler profiler(SimTime::Micros(200), 3e9, Rng(5));
    EngineContext context;
    context.simulator = &simulator;
    context.io = &io;
    context.rpc = &rpc;
    context.tracer = &tracer;
    context.profiler = &profiler;
    context.registry = &registry_;
    PlatformEngine engine(context, SimpleSpec(), Rng(seed));
    engine.Run(30, 1000.0);
    simulator.Run();
    return simulator.Now();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST_F(EngineTest, FiniteWorkerPoolQueuesComputePhases) {
  PlatformSpec spec = SimpleSpec();
  spec.worker_cores = 1;  // force serialization of compute phases
  PlatformEngine engine(Context(), spec, Rng(7));
  // Arrive much faster than one core can serve 1ms compute phases.
  engine.Run(20, 100000.0);
  simulator_.Run();
  EXPECT_EQ(engine.queries_completed(), 20u);
  ASSERT_NE(engine.worker_pool(), nullptr);
  // The single core must have been the bottleneck: queueing happened.
  EXPECT_GT(engine.worker_pool()->wait_stats().max(), 0.0);
  // CPU spans never overlap with one core.
  std::vector<std::pair<SimTime, SimTime>> cpu_spans;
  for (const auto& trace : tracer_.traces()) {
    for (const auto& span : trace.spans) {
      if (span.kind == profiling::SpanKind::kCpu) {
        cpu_spans.emplace_back(span.start, span.end);
      }
    }
  }
  std::sort(cpu_spans.begin(), cpu_spans.end());
  for (size_t i = 1; i < cpu_spans.size(); ++i) {
    EXPECT_GE(cpu_spans[i].first, cpu_spans[i - 1].second);
  }
}

TEST_F(EngineTest, UnlimitedPoolHasNoWorkerResource) {
  PlatformEngine engine(Context(), SimpleSpec(), Rng(7));
  EXPECT_EQ(engine.worker_pool(), nullptr);
}

TEST_F(EngineTest, OverlappingPhaseRunsConcurrently) {
  PlatformSpec spec = SimpleSpec();
  // Mark the IO phase as overlapping the compute phase.
  spec.query_types[0].phases[1].overlap_with_previous = true;
  PlatformEngine engine(Context(), spec, Rng(7));
  engine.Run(10, 1000.0);
  simulator_.Run();
  bool saw_overlap = false;
  for (const auto& trace : tracer_.traces()) {
    SimTime cpu_start, cpu_end, io_start;
    bool has_io = false;
    for (const auto& span : trace.spans) {
      if (span.kind == profiling::SpanKind::kCpu) {
        cpu_start = span.start;
        cpu_end = span.end;
      }
      if (span.kind == profiling::SpanKind::kIo && !has_io) {
        io_start = span.start;
        has_io = true;
      }
    }
    if (has_io && io_start < cpu_end && io_start >= cpu_start) {
      saw_overlap = true;
    }
  }
  EXPECT_TRUE(saw_overlap);
}

}  // namespace
}  // namespace hyperprof::platforms
