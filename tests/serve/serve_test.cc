// Integration tests of the serving front door over real loopback sockets:
// full round-trips through the epoll daemon, pipelining, partial-frame
// reassembly at arbitrary split points, rejection of corrupt/truncated/
// oversized frames, load shedding, and the serving-accounting arithmetic
// on the socketless VirtualFrontDoor core.

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "platforms/platforms.h"
#include "serve/front_door.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace hyperprof::serve {
namespace {

// A realistic engine behind a tiny block space: fleet construction is
// dominated by the DFS Zipf prewarm, which scales with block_space, and
// these tests exercise serving mechanics rather than cache realism.
platforms::PlatformSpec CheapSpec(const char* name) {
  platforms::PlatformSpec spec = platforms::SpannerSpec();
  spec.name = name;
  spec.block_space = 1 << 14;
  return spec;
}

/** A daemon on an ephemeral loopback port, running in its own thread. */
class DaemonFixture {
 public:
  explicit DaemonFixture(ServerOptions options = FastOptions(),
                         bool cheap_platforms = false)
      : daemon_(std::move(options)) {
    if (cheap_platforms) {
      daemon_.AddPlatform(CheapSpec("a"));
      daemon_.AddPlatform(CheapSpec("b"));
      daemon_.AddPlatform(CheapSpec("c"));
    } else {
      daemon_.AddDefaultPlatforms();
    }
    EXPECT_TRUE(daemon_.Listen());
    thread_ = std::thread([this] { daemon_.Run(); });
  }

  ~DaemonFixture() {
    daemon_.Stop();
    thread_.join();
  }

  static ServerOptions FastOptions() {
    ServerOptions options;
    options.port = 0;
    // Virtual time outruns the wall clock so queries complete in wall
    // microseconds even under sanitizers.
    options.virtual_seconds_per_wall_second = 50.0;
    // Sample every query so the continuous windows deterministically see
    // the traffic these tests send.
    options.front_door.fleet.trace_sample_one_in = 1;
    return options;
  }

  ServeDaemon& daemon() { return daemon_; }

 private:
  ServeDaemon daemon_;
  std::thread thread_;
};

// Fleet construction (the DFS Zipf prewarm) dominates fixture cost, so the
// default-config tests share one long-lived daemon — which doubles as a
// test that the daemon survives many connections, including misbehaving
// ones, across its lifetime. Tests needing special admission or pacing
// options build their own.
DaemonFixture* g_shared_daemon = nullptr;

class SharedDaemonEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { g_shared_daemon = new DaemonFixture(); }
  void TearDown() override {
    delete g_shared_daemon;
    g_shared_daemon = nullptr;
  }
};

const auto* const g_environment =
    ::testing::AddGlobalTestEnvironment(new SharedDaemonEnvironment);

ServeDaemon& SharedDaemon() { return g_shared_daemon->daemon(); }

/** Minimal blocking test client speaking the frame protocol. */
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendBytes(const uint8_t* data, size_t size) {
    size_t offset = 0;
    while (offset < size) {
      const ssize_t n =
          ::send(fd_, data + offset, size - offset, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      offset += static_cast<size_t>(n);
    }
  }

  void SendRequest(const Request& request) {
    protowire::WireBuffer payload;
    EncodeRequest(request, payload);
    std::vector<uint8_t> frame;
    EncodeFrame(payload.data(), payload.size(), frame);
    SendBytes(frame.data(), frame.size());
  }

  /** Blocks (up to 5s) for the next response frame. */
  bool ReadResponse(Response* response) {
    std::vector<uint8_t> payload;
    for (;;) {
      const FrameDecoder::Status status = decoder_.Next(&payload);
      if (status == FrameDecoder::Status::kFrame) {
        return DecodeResponse(payload.data(), payload.size(), response);
      }
      if (status != FrameDecoder::Status::kNeedMore) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) return false;
      uint8_t buffer[16 * 1024];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return false;
      decoder_.Feed(buffer, static_cast<size_t>(n));
    }
  }

  /** True once the peer has closed the connection (bounded wait). */
  bool WaitForClose() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    uint8_t buffer[4096];
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n == 0) return true;
      if (n < 0 && errno != EINTR && errno != EAGAIN) return true;
    }
    return false;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(ServeTest, QueryRoundTripOverLoopback) {
  TestClient client(SharedDaemon().port());

  Request request;
  request.id = 42;
  request.kind = RequestKind::kQuery;
  request.platform = 0;
  client.SendRequest(request);

  Response response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.id, 42u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_GT(response.latency_nanos, 0u);
}

TEST(ServeTest, PipelinedRequestsAllAnswered) {
  TestClient client(SharedDaemon().port());

  // One write carrying many frames; responses may arrive in completion
  // order, not send order.
  std::vector<uint8_t> batch;
  constexpr uint64_t kCount = 32;
  for (uint64_t id = 0; id < kCount; ++id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kQuery;
    request.platform = static_cast<uint32_t>(id % 3);
    protowire::WireBuffer payload;
    EncodeRequest(request, payload);
    EncodeFrame(payload.data(), payload.size(), batch);
  }
  client.SendBytes(batch.data(), batch.size());

  std::vector<bool> seen(kCount, false);
  for (uint64_t i = 0; i < kCount; ++i) {
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response));
    ASSERT_LT(response.id, kCount);
    EXPECT_FALSE(seen[response.id]) << "duplicate response " << response.id;
    seen[response.id] = true;
    EXPECT_EQ(response.status, ResponseStatus::kOk);
  }
}

TEST(ServeTest, PartialFramesReassembleAcrossArbitrarySplits) {
  TestClient client(SharedDaemon().port());

  Request request;
  request.id = 7;
  request.kind = RequestKind::kQuery;
  protowire::WireBuffer payload;
  EncodeRequest(request, payload);
  std::vector<uint8_t> frame;
  EncodeFrame(payload.data(), payload.size(), frame);

  // Dribble the frame one byte at a time with small pauses: the daemon
  // must reassemble across however many reads that takes.
  for (size_t i = 0; i < frame.size(); ++i) {
    client.SendBytes(frame.data() + i, 1);
    if (i % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Response response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.id, 7u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
}

TEST(ServeTest, CorruptChecksumClosesConnection) {
  TestClient client(SharedDaemon().port());

  Request request;
  request.id = 1;
  protowire::WireBuffer payload;
  EncodeRequest(request, payload);
  std::vector<uint8_t> frame;
  EncodeFrame(payload.data(), payload.size(), frame);
  frame.back() ^= 0xff;  // corrupt the CRC
  client.SendBytes(frame.data(), frame.size());

  EXPECT_TRUE(client.WaitForClose());
}

TEST(ServeTest, OversizedFrameClosesConnection) {
  TestClient client(SharedDaemon().port());

  const uint32_t huge = kMaxFramePayload + 1;
  uint8_t header[4] = {static_cast<uint8_t>(huge),
                       static_cast<uint8_t>(huge >> 8),
                       static_cast<uint8_t>(huge >> 16),
                       static_cast<uint8_t>(huge >> 24)};
  client.SendBytes(header, sizeof(header));

  EXPECT_TRUE(client.WaitForClose());
}

TEST(ServeTest, TruncatedFrameAtDisconnectIsHarmless) {
  {
    TestClient client(SharedDaemon().port());
    Request request;
    request.id = 3;
    protowire::WireBuffer payload;
    EncodeRequest(request, payload);
    std::vector<uint8_t> frame;
    EncodeFrame(payload.data(), payload.size(), frame);
    client.SendBytes(frame.data(), frame.size() - 3);  // cut mid-frame
  }  // client hangs up with a partial frame buffered server-side

  // A fresh connection must be completely unaffected.
  TestClient client(SharedDaemon().port());
  Request request;
  request.id = 4;
  client.SendRequest(request);
  Response response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.id, 4u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
}

TEST(ServeTest, UnknownPlatformGetsErrorResponse) {
  TestClient client(SharedDaemon().port());

  Request request;
  request.id = 9;
  request.kind = RequestKind::kQuery;
  request.platform = 999;
  client.SendRequest(request);

  Response response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.id, 9u);
  EXPECT_EQ(response.status, ResponseStatus::kError);
}

TEST(ServeTest, StatsRequestReflectsServingCounters) {
  TestClient client(SharedDaemon().port());

  // The shared daemon accumulates counters across tests, so assert on the
  // before/after delta of this test's own traffic.
  auto fetch_stats = [&client](StatsSummary* stats) {
    Request request;
    request.id = 100;
    request.kind = RequestKind::kStats;
    client.SendRequest(request);
    Response response;
    if (!client.ReadResponse(&response) || !response.has_stats) return false;
    *stats = response.stats;
    return true;
  };

  StatsSummary before;
  ASSERT_TRUE(fetch_stats(&before));
  EXPECT_EQ(before.admitted + before.shed, before.offered);

  constexpr uint64_t kQueries = 8;
  for (uint64_t id = 0; id < kQueries; ++id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kQuery;
    client.SendRequest(request);
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.status, ResponseStatus::kOk);
  }

  StatsSummary after;
  ASSERT_TRUE(fetch_stats(&after));
  EXPECT_EQ(after.offered - before.offered, kQueries);
  EXPECT_EQ(after.admitted + after.shed, after.offered);
  EXPECT_EQ(after.completed - before.completed, kQueries);
  EXPECT_EQ(after.in_flight, 0u);
  EXPECT_GT(after.virtual_nanos, 0u);
}

TEST(ServeTest, WindowsRequestStreamsLiveProfile) {
  TestClient client(SharedDaemon().port());

  // Complete some queries, then give virtual time a moment to cross a
  // 250ms continuous window (50x rate: ~5ms wall per window).
  for (uint64_t id = 0; id < 16; ++id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kQuery;
    client.SendRequest(request);
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Request windows_request;
  windows_request.id = 200;
  windows_request.kind = RequestKind::kWindows;
  client.SendRequest(windows_request);
  Response response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_FALSE(response.windows.empty());
  uint64_t total_queries = 0;
  for (const WindowSummary& window : response.windows) {
    EXPECT_GE(window.index, 0);
    total_queries += window.queries;
    if (window.queries > 0) {
      EXPECT_GT(window.latency_total_nanos, 0);
      EXPECT_GT(window.latency_p50, 0);
      EXPECT_LE(window.latency_p50, window.latency_p99);
    }
  }
  EXPECT_GT(total_queries, 0u);
}

TEST(ServeTest, SaturationShedsInsteadOfQueueing) {
  ServerOptions options = DaemonFixture::FastOptions();
  // Pathologically tight admission bound plus a virtual clock that barely
  // moves: almost everything past the first query must shed.
  options.virtual_seconds_per_wall_second = 1e-3;
  options.front_door.max_in_flight = 1;
  DaemonFixture fixture(std::move(options), /*cheap_platforms=*/true);
  TestClient client(fixture.daemon().port());

  constexpr uint64_t kCount = 24;
  std::vector<uint8_t> batch;
  for (uint64_t id = 0; id < kCount; ++id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kQuery;
    protowire::WireBuffer payload;
    EncodeRequest(request, payload);
    EncodeFrame(payload.data(), payload.size(), batch);
  }
  client.SendBytes(batch.data(), batch.size());

  // Shed responses are synchronous; the one admitted query would need
  // ~minutes of wall time at this virtual rate, so only read the prompt
  // refusals — at least kCount - max_in_flight of them.
  uint64_t ok = 0, shed = 0;
  for (uint64_t i = 0; i + 1 < kCount; ++i) {
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response));
    if (response.status == ResponseStatus::kOk) ++ok;
    if (response.status == ResponseStatus::kShed) ++shed;
  }
  EXPECT_GE(shed, kCount - 2);
  EXPECT_EQ(ok + shed, kCount - 1);

  const ServingCounters& counters = fixture.daemon().counters();
  EXPECT_EQ(counters.offered, kCount);
  EXPECT_EQ(counters.admitted + counters.shed, counters.offered);
  EXPECT_GE(counters.admitted, 1u);
}

// Forces the daemon through its partial-write path: the client shrinks
// its receive buffer to the kernel minimum and refuses to read while
// hundreds of pipelined responses back up, so sendmsg repeatedly takes
// only part of the output ring (short writes), EPOLLOUT gets armed, and
// the front/back buffers swap many times. Every response must still
// arrive exactly once, CRC-intact, whatever the write fragmentation.
TEST(ServeTest, BackpressuredConnectionDeliversAllResponsesIntact) {
  constexpr uint64_t kCount = 600;

  TestClient client(SharedDaemon().port());
  // Request the smallest buffers the kernel will grant (it clamps the
  // 1-byte ask to its floor) so daemon-side writes go short quickly.
  int tiny = 1;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));

  std::vector<uint8_t> batch;
  for (uint64_t id = 0; id < kCount; ++id) {
    Request request;
    request.id = id;
    // kStats responses are the largest single-frame payloads the daemon
    // emits synchronously — they pile up output fastest.
    request.kind = id % 2 == 0 ? RequestKind::kStats : RequestKind::kQuery;
    protowire::WireBuffer payload;
    EncodeRequest(request, payload);
    EncodeFrame(payload.data(), payload.size(), batch);
  }
  client.SendBytes(batch.data(), batch.size());

  // Let the daemon's output ring fill against the unread socket before
  // draining a single byte.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<bool> seen(kCount, false);
  for (uint64_t i = 0; i < kCount; ++i) {
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response)) << "response " << i;
    ASSERT_LT(response.id, kCount);
    EXPECT_FALSE(seen[response.id]) << "duplicate response " << response.id;
    seen[response.id] = true;
    if (response.id % 2 == 0) {
      EXPECT_TRUE(response.has_stats);
    } else {
      // A 300-query burst overruns the default admission window; shed
      // refusals are valid — the test pins delivery, not admission.
      EXPECT_TRUE(response.status == ResponseStatus::kOk ||
                  response.status == ResponseStatus::kShed);
    }
  }
}

TEST(ServeTest, StatsReportZeroSteadyStateAllocsUnderRepeatedTraffic) {
  TestClient client(SharedDaemon().port());

  // Warm this connection's buffers, then check the daemon's data-plane
  // allocation counter stops moving — surfaced through the wire itself.
  auto allocs_now = [&client](uint64_t id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kStats;
    client.SendRequest(request);
    Response response;
    EXPECT_TRUE(client.ReadResponse(&response));
    EXPECT_TRUE(response.has_stats);
    return response.stats.serve_allocs;
  };

  for (uint64_t id = 0; id < 32; ++id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kQuery;
    client.SendRequest(request);
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response));
  }
  const uint64_t before = allocs_now(1000);
  for (uint64_t id = 0; id < 64; ++id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kQuery;
    client.SendRequest(request);
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.status, ResponseStatus::kOk);
  }
  EXPECT_EQ(allocs_now(1001), before)
      << "warmed serial traffic must not grow data-plane buffers";
}

TEST(ServeTest, LoadGenAgainstDaemonConservesRequests) {

  LoadGenOptions load;
  load.port = SharedDaemon().port();
  load.offered_qps = 2000;
  load.total_requests = 400;
  load.seed = 7;
  const LoadGenReport report = RunLoadGen(load);

  ASSERT_TRUE(report.connected);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.ok + report.shed + report.errors, report.sent);
  EXPECT_EQ(report.sent, 400u);
  EXPECT_GT(report.latency_p50_ms, 0.0);
  EXPECT_GE(report.latency_p999_ms, report.latency_p50_ms);
}

TEST(ServeTest, LoadGenMultiConnectionWarmupExcludedFromStats) {
  LoadGenOptions load;
  load.port = SharedDaemon().port();
  load.offered_qps = 2000;
  load.total_requests = 300;
  load.warmup_requests = 100;
  load.connections = 3;
  load.seed = 11;
  const LoadGenReport report = RunLoadGen(load);

  ASSERT_TRUE(report.connected);
  EXPECT_EQ(report.warmup_sent, 100u);
  EXPECT_EQ(report.sent, 300u);  // measured only
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.ok + report.shed + report.errors, report.sent);
  // Nothing shed at this gentle rate: the shed-aware quantiles must
  // coincide with the accepted-only ones (no survivor bias to correct).
  if (report.shed == 0 && report.errors == 0) {
    EXPECT_DOUBLE_EQ(report.shed_aware_p50_ms, report.latency_p50_ms);
    EXPECT_DOUBLE_EQ(report.shed_aware_p99_ms, report.latency_p99_ms);
  }
  EXPECT_GT(report.latency_p50_ms, 0.0);
}

/** Test ResponseSink: hands every response and its ticket to `fn`. */
class FnSink : public VirtualFrontDoor::ResponseSink {
 public:
  explicit FnSink(std::function<void(uint64_t, const Response&)> fn)
      : fn_(std::move(fn)) {}
  void OnResponse(uint64_t ticket, Response& response) override {
    fn_(ticket, response);
  }

 private:
  std::function<void(uint64_t, const Response&)> fn_;
};

// The socketless accounting core: the same arithmetic the
// serving-accounting invariant checks fleet-wide.
TEST(ServeTest, FrontDoorAccountingBalances) {
  FrontDoorOptions options;
  options.max_in_flight = 4;
  VirtualFrontDoor door(options);
  door.AddPlatform(CheapSpec("a"));
  door.AddPlatform(CheapSpec("b"));
  door.AddPlatform(CheapSpec("c"));
  door.Start();

  uint64_t responses = 0, ok = 0, shed = 0;
  FnSink sink([&](uint64_t, const Response& response) {
    ++responses;
    if (response.status == ResponseStatus::kOk) ++ok;
    if (response.status == ResponseStatus::kShed) ++shed;
  });
  door.set_sink(&sink);
  constexpr uint64_t kCount = 64;
  for (uint64_t id = 0; id < kCount; ++id) {
    Request request;
    request.id = id;
    request.kind = RequestKind::kQuery;
    door.SubmitTicketed(request, /*ticket=*/id);
    // Alternate bursts and quiet periods so both the shed and the admit
    // paths run: pumping lets in-flight queries finish.
    if (id % 8 == 7) {
      door.Pump(door.virtual_now() + SimTime::Millis(50));
    }
    const ServingCounters& counters = door.counters();
    EXPECT_EQ(counters.admitted + counters.shed, counters.offered);
    EXPECT_LE(counters.in_flight(), options.max_in_flight);
    EXPECT_EQ(counters.responses, counters.completed);
  }

  door.Finish();
  const ServingCounters& counters = door.counters();
  EXPECT_EQ(counters.offered, kCount);
  EXPECT_GT(counters.shed, 0u);       // the tight bound did engage
  EXPECT_GT(counters.admitted, 0u);
  EXPECT_EQ(counters.in_flight(), 0u);
  EXPECT_EQ(counters.completed, counters.admitted);
  EXPECT_EQ(counters.responses, counters.completed);
  EXPECT_EQ(responses, kCount);
  EXPECT_EQ(ok, counters.completed);
  EXPECT_EQ(shed, counters.shed);
}

// Pump must be deterministic: the same admission sequence at the same
// virtual times yields bit-identical latencies regardless of pump chunking.
TEST(ServeTest, FrontDoorDeterministicAcrossPumpChunking) {
  auto run = [](SimTime step) {
    FrontDoorOptions options;
    VirtualFrontDoor door(options);
    door.AddPlatform(CheapSpec("a"));
    door.AddPlatform(CheapSpec("b"));
    door.AddPlatform(CheapSpec("c"));
    door.Start();
    // Keyed by request id (the ticket): response *interleaving* across
    // platforms is a function of pump chunking (each pump advances
    // platforms in turn), but every individual query's latency must be
    // bit-identical.
    std::vector<uint64_t> latencies(32, 0);
    FnSink sink([&latencies](uint64_t ticket, const Response& response) {
      latencies[ticket] = response.latency_nanos;
    });
    door.set_sink(&sink);
    for (uint64_t id = 0; id < 32; ++id) {
      Request request;
      request.id = id;
      request.kind = RequestKind::kQuery;
      request.platform = static_cast<uint32_t>(id % 3);
      door.SubmitTicketed(request, /*ticket=*/id);
    }
    SimTime horizon = door.virtual_now();
    const SimTime end = horizon + SimTime::Seconds(2);
    while (horizon < end) {
      horizon = horizon + step;
      door.Pump(horizon);
    }
    door.Finish();
    return latencies;
  };

  const auto coarse = run(SimTime::Millis(500));
  const auto fine = run(SimTime::Micros(700));
  EXPECT_EQ(coarse, fine);
}

// A daemon runs for its whole life, so the front door keeps a bounded
// trace sample by default: after four reservoirs' worth of completions it
// holds exactly one reservoir, and its breakdown equals that of a door
// that retained every trace of the same admissions.
TEST(ServeTest, FrontDoorBoundsRetainedTraces) {
  FnSink sink([](uint64_t, const Response&) {});
  auto run = [&sink](FrontDoorOptions options) {
    const uint64_t count = 4 * options.fleet.trace_reservoir_capacity;
    options.fleet.trace_sample_one_in = 1;  // sample every query
    options.max_in_flight = count;          // shed nothing
    auto door = std::make_unique<VirtualFrontDoor>(options);
    door->AddPlatform(CheapSpec("a"));
    door->Start();
    door->set_sink(&sink);
    for (uint64_t id = 0; id < count; ++id) {
      Request request;
      request.id = id;
      request.kind = RequestKind::kQuery;
      door->SubmitTicketed(request, /*ticket=*/id);
      door->Pump(door->virtual_now() + SimTime::Micros(500));
    }
    door->Finish();
    EXPECT_EQ(door->counters().completed, count);
    return door;
  };
  FrontDoorOptions bounded;
  const auto sample = run(bounded);
  FrontDoorOptions unbounded;
  unbounded.fleet.trace_retention = profiling::TraceRetention::kRetainAll;
  const auto all = run(unbounded);

  const size_t capacity = bounded.fleet.trace_reservoir_capacity;
  EXPECT_EQ(sample->fleet().TracesOf(0).size(), capacity);
  EXPECT_EQ(all->fleet().TracesOf(0).size(), 4 * capacity);
  const profiling::E2eBreakdownReport a = sample->fleet().Result(0).e2e;
  const profiling::E2eBreakdownReport b = all->fleet().Result(0).e2e;
  auto expect_same = [](const profiling::GroupAggregate& x,
                        const profiling::GroupAggregate& y) {
    EXPECT_EQ(x.query_count, y.query_count);
    EXPECT_EQ(x.time.cpu, y.time.cpu);
    EXPECT_EQ(x.time.io, y.time.io);
    EXPECT_EQ(x.time.remote, y.time.remote);
    EXPECT_EQ(x.fraction_sum.cpu, y.fraction_sum.cpu);
    EXPECT_EQ(x.fraction_sum.io, y.fraction_sum.io);
    EXPECT_EQ(x.fraction_sum.remote, y.fraction_sum.remote);
  };
  for (size_t g = 0; g < a.groups.size(); ++g) {
    expect_same(a.groups[g], b.groups[g]);
  }
  expect_same(a.overall, b.overall);
  EXPECT_EQ(a.overall.query_count, 4 * capacity);
}

}  // namespace
}  // namespace hyperprof::serve
