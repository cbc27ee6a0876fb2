// Pins the zero-allocation steady-state contract of the serving data
// plane (DESIGN.md §16): once a connection and the engine behind it are
// warmed, pipelined query/response cycles through the real epoll daemon —
// recv, frame decode, batch admission, virtual-time completion, response
// serialization, sendmsg flush — must perform ZERO heap allocations.
//
// This binary replaces the global allocator with the counting shim in
// testing/counting_new.h; it must stay its own test executable so the
// override can't leak into other suites. HYPERPROF_TRAP_ALLOC=1 dumps a
// backtrace of each allocation inside the measured window.
//
// Two specs run behind the daemon. The crafted one is a single compute
// phase whose mean is far below the activity decomposition floor (no
// profiler activity draws) with no worker pool: a finite pool's grant and
// release closures outgrow the simulator callback's 48-byte inline
// buffer, so each grant and each release allocates (DESIGN.md §18).
// SpannerSpec() runs the paper's full query path — compute activities,
// DFS reads and quorum writes, Paxos rounds, RPC fan-outs — which is
// allocation-free once warm (DESIGN.md §18). Both leave trace storage
// out: the tracer's sampling period is larger than the test's traffic
// (no span storage). The CPU profiler samples at its default 1 ms period;
// each sample folds into its symbol's row, interned when the engine was
// built, so sampling stores nothing. The daemon side needs no such
// staging — its zero-alloc guarantee is unconditional and separately
// accounted by serve_allocs().

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "platforms/platforms.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "testing/counting_new.h"

namespace hyperprof::serve {
namespace {

platforms::PlatformSpec SteadySpec() {
  platforms::PlatformSpec spec;
  spec.name = "steady";
  platforms::QueryTypeSpec type;
  type.name = "tiny";
  type.weight = 1.0;
  // Mean far below the 1ns decomposition floor: the compute phase
  // schedules its span without drawing any profiler activities.
  type.phases.push_back(platforms::PhaseSpec::Compute(1e-12, 0.0));
  spec.query_types.push_back(type);
  spec.compute_mix[0] = 1.0;
  spec.worker_cores = 0;      // infinite cores: no Resource round trip
  spec.block_space = 1 << 12;  // cheap DFS prewarm; no IO phases anyway
  return spec;
}

/**
 * The paper's Spanner behind a small block space: the warm-up then
 * installs every block its caches will hold, so their indexes stop
 * growing (engine_alloc_test explains the sizing).
 */
platforms::PlatformSpec SmallSpannerSpec() {
  platforms::PlatformSpec spec = platforms::SpannerSpec();
  spec.block_space = 1 << 6;
  return spec;
}

/**
 * Single-threaded harness: the test thread drives daemon.RunOnce()
 * itself, so the global allocation counter observes exactly the
 * client+daemon+engine work of each cycle.
 */
class SteadyStateHarness {
 public:
  explicit SteadyStateHarness(platforms::PlatformSpec spec = SteadySpec())
      : daemon_(HarnessOptions()) {
    daemon_.AddPlatform(std::move(spec));
    EXPECT_TRUE(daemon_.Listen());

    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(daemon_.port());
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    // Client-side scratch is warmed up front: the test measures the
    // serving stack, not this harness.
    payload_.reserve(1024);
    outbuf_.reserve(1024);
    frame_.reserve(1024);
  }

  ~SteadyStateHarness() {
    if (fd_ >= 0) ::close(fd_);
    daemon_.Shutdown();
  }

  static ServerOptions HarnessOptions() {
    ServerOptions options;
    options.port = 0;
    // Fast virtual clock: ~picosecond virtual queries complete within one
    // RunOnce(1) wait.
    options.virtual_seconds_per_wall_second = 1000.0;
    options.front_door.max_in_flight = 16;
    // Never trace-sample: sampled queries allocate span storage.
    options.front_door.fleet.trace_sample_one_in = 1 << 30;
    return options;
  }

  /** One pipelined round trip. Allocation-free once warmed. */
  bool Cycle(RequestKind kind) {
    Request request;
    request.id = ++next_id_;
    request.kind = kind;
    request.platform = 0;
    payload_.clear();
    outbuf_.clear();
    EncodeRequest(request, payload_);
    EncodeFrame(payload_.data(), payload_.size(), outbuf_);
    size_t sent = 0;
    for (int spins = 0; spins < 100000; ++spins) {
      while (sent < outbuf_.size()) {
        const ssize_t n = ::send(fd_, outbuf_.data() + sent,
                                 outbuf_.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
          sent += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      daemon_.RunOnce(1);
      uint8_t buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n == 0) return false;
      if (n > 0) decoder_.Feed(buffer, static_cast<size_t>(n));
      const FrameDecoder::Status status = decoder_.Next(&frame_);
      if (status == FrameDecoder::Status::kNeedMore) continue;
      if (status != FrameDecoder::Status::kFrame) return false;
      Response response;
      return DecodeResponse(frame_.data(), frame_.size(), &response) &&
             response.id == request.id &&
             response.status == ResponseStatus::kOk;
    }
    return false;
  }

  ServeDaemon& daemon() { return daemon_; }

 private:
  ServeDaemon daemon_;
  int fd_ = -1;
  uint64_t next_id_ = 0;
  FrameDecoder decoder_;
  protowire::WireBuffer payload_;
  std::vector<uint8_t> outbuf_;
  std::vector<uint8_t> frame_;
};

TEST(ServeAllocTest, WarmedQueryCyclesAllocateNothing) {
  SteadyStateHarness harness;

  // Warmup: grows every buffer (decoder, output ring, ticket table,
  // event heap, query-state pool) to its high-water mark.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(harness.Cycle(RequestKind::kQuery)) << "warmup cycle " << i;
  }

  const uint64_t allocs_before =
      g_allocation_count.load(std::memory_order_relaxed);
  const uint64_t serve_allocs_before = harness.daemon().serve_allocs();
  int ok = 0;
  constexpr int kCycles = 256;
  for (int i = 0; i < kCycles; ++i) {
    if (harness.Cycle(RequestKind::kQuery)) ++ok;  // no gtest in the loop
  }
  const uint64_t allocs =
      g_allocation_count.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t serve_allocs =
      harness.daemon().serve_allocs() - serve_allocs_before;

  EXPECT_EQ(ok, kCycles);
  EXPECT_EQ(serve_allocs, 0u) << "data-plane site counters saw allocations";
  EXPECT_EQ(allocs, 0u) << "global allocator saw " << allocs
                        << " allocations across " << kCycles
                        << " steady-state query cycles";
}

TEST(ServeAllocTest, WarmedSpannerQueryCyclesAllocateNothing) {
  SteadyStateHarness harness(SmallSpannerSpec());

  // Warmup: long enough for the engine, DFS, RPC and Paxos pools to reach
  // their high-water marks and for the caches to install the 64 blocks.
  for (int i = 0; i < 2048; ++i) {
    ASSERT_TRUE(harness.Cycle(RequestKind::kQuery)) << "warmup cycle " << i;
  }

  const uint64_t allocs_before =
      g_allocation_count.load(std::memory_order_relaxed);
  if (std::getenv("HYPERPROF_TRAP_ALLOC")) g_trap_on_alloc.store(true);
  int ok = 0;
  constexpr int kCycles = 256;
  for (int i = 0; i < kCycles; ++i) {
    if (harness.Cycle(RequestKind::kQuery)) ++ok;
  }
  g_trap_on_alloc.store(false);
  const uint64_t allocs =
      g_allocation_count.load(std::memory_order_relaxed) - allocs_before;

  EXPECT_EQ(ok, kCycles);
  EXPECT_EQ(allocs, 0u) << "global allocator saw " << allocs
                        << " allocations across " << kCycles
                        << " steady-state Spanner query cycles";
}

TEST(ServeAllocTest, WarmedStatsCyclesAllocateNothing) {
  SteadyStateHarness harness;

  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(harness.Cycle(RequestKind::kStats)) << "warmup cycle " << i;
  }

  const uint64_t allocs_before =
      g_allocation_count.load(std::memory_order_relaxed);
  if (std::getenv("HYPERPROF_TRAP_ALLOC")) g_trap_on_alloc.store(true);
  int ok = 0;
  constexpr int kCycles = 64;
  for (int i = 0; i < kCycles; ++i) {
    if (harness.Cycle(RequestKind::kStats)) ++ok;
  }
  g_trap_on_alloc.store(false);
  const uint64_t allocs =
      g_allocation_count.load(std::memory_order_relaxed) - allocs_before;

  EXPECT_EQ(ok, kCycles);
  EXPECT_EQ(allocs, 0u) << "kStats responses must encode scratch-free";
}

}  // namespace
}  // namespace hyperprof::serve
