// Load test of the live serving front door: an in-process epoll daemon on
// loopback, swept across offered arrival rates by the open-loop load
// generator. Reports tail latency (accepted-only AND shed-aware) and shed
// rate per level, the max sustained QPS (highest offered level the daemon
// absorbed with <5% shed), and the steady-state serving allocation count,
// tracked across PRs via BENCH_serving.json.
//
// Open loop matters here: arrivals follow a fixed schedule and never wait
// for responses, so a saturated daemon shows up as shed + tail growth
// instead of the load generator politely backing off (coordinated
// omission). Each level leads with a warmup phase (excluded from stats)
// so buffer growth and cold caches don't bias the first measurements,
// and offered load is spread over several connections to exercise the
// daemon's batched admission path.
//
// Survivor bias note: accepted-only percentiles can *improve* at heavily
// shed levels (the admitted minority waits behind a capped in-flight
// window). The shed-aware quantiles score shed/lost requests as
// never-answered, so they are monotone in offered load; -1 means the
// quantile fell beyond the shed horizon.
//
// Exit code is nonzero if the steady-state allocation probe sees any
// serving data-plane allocation, or (on multi-core non-sanitizer hosts)
// if max sustained QPS regresses below 1.5x the PR-9 baseline.
//
// Usage: serving_micro [out.json] [smoke]

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_sanitizer.h"
#include "common/strings.h"
#include "common/table.h"
#include "serve/frame.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace hyperprof;

namespace {

struct Level {
  double offered_qps = 0;
  serve::LoadGenReport report;
  uint64_t shed_daemon = 0;
};

constexpr double kShedBudget = 0.05;  // "sustained" = shed rate under 5%
// PR-9 knee, before the zero-alloc/batched data-plane overhaul. The
// trajectory entry and the perf guard are both anchored here.
constexpr double kBaselineQps = 7876;
constexpr uint32_t kConnections = 4;

/**
 * Steady-state allocation probe: a single-threaded daemon driven by
 * RunOnce() and one raw pipelined loopback client. After a warmup phase
 * grows every buffer to its high-water mark, `cycles` query/response
 * round trips must leave serve_allocs() unchanged — the zero-allocation
 * contract of DESIGN.md §16. Returns the measured-window delta (0 on a
 * healthy build) or UINT64_MAX on harness failure.
 */
uint64_t SteadyStateAllocProbe(uint64_t warmup_cycles, uint64_t cycles) {
  serve::ServerOptions options;
  options.port = 0;
  // Fast virtual clock so each ~millisecond virtual query completes in
  // microseconds of wall time; the probe is about allocations, not QPS.
  options.virtual_seconds_per_wall_second = 1000.0;
  options.front_door.max_in_flight = 128;
  serve::ServeDaemon daemon(options);
  daemon.AddDefaultPlatforms();
  if (!daemon.Listen()) return UINT64_MAX;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return UINT64_MAX;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(daemon.port());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return UINT64_MAX;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  serve::FrameDecoder decoder;
  protowire::WireBuffer payload;
  std::vector<uint8_t> outbuf;
  std::vector<uint8_t> frame;
  uint8_t read_buffer[4096];
  uint64_t next_id = 1;
  bool ok = true;

  // One pipelined round trip: send a kQuery frame, step the daemon until
  // the response comes back.
  const auto cycle = [&]() -> bool {
    serve::Request request;
    request.id = next_id++;
    request.kind = serve::RequestKind::kQuery;
    request.platform = 0;
    payload.clear();
    outbuf.clear();
    EncodeRequest(request, payload);
    serve::EncodeFrame(payload.data(), payload.size(), outbuf);
    size_t sent = 0;
    for (int spins = 0; spins < 100000; ++spins) {
      while (sent < outbuf.size()) {
        const ssize_t n = ::send(fd, outbuf.data() + sent,
                                 outbuf.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
          sent += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      daemon.RunOnce(1);
      const ssize_t n = ::recv(fd, read_buffer, sizeof(read_buffer), 0);
      if (n > 0) decoder.Feed(read_buffer, static_cast<size_t>(n));
      if (n == 0) return false;
      const serve::FrameDecoder::Status status = decoder.Next(&frame);
      if (status == serve::FrameDecoder::Status::kNeedMore) continue;
      if (status != serve::FrameDecoder::Status::kFrame) return false;
      serve::Response response;
      return DecodeResponse(frame.data(), frame.size(), &response) &&
             response.id == request.id;
    }
    return false;  // daemon never answered
  };

  for (uint64_t i = 0; ok && i < warmup_cycles; ++i) ok = cycle();
  const uint64_t allocs_before = daemon.serve_allocs();
  for (uint64_t i = 0; ok && i < cycles; ++i) ok = cycle();
  const uint64_t delta = daemon.serve_allocs() - allocs_before;
  ::close(fd);
  daemon.Shutdown();
  return ok ? delta : UINT64_MAX;
}

std::string SaMs(double value) {
  return value < 0 ? std::string("inf") : StrFormat("%.2f", value);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const bool smoke = argc > 2 && std::strcmp(argv[2], "smoke") == 0;

  // Virtual time runs far faster than the wall clock so each level settles
  // in about a second; capacity itself is set by admission control and the
  // simulated virtual latency, not by host speed.
  const double virtual_rate = 20.0;
  const double level_seconds = smoke ? 0.3 : 1.5;
  // The ladder is dense through the expected knee (32k-96k after the
  // data-plane overhaul) and the top levels are meant to overrun it, so
  // the sweep shows shed rate climbing while sustained throughput
  // flattens.
  std::vector<double> offered =
      smoke ? std::vector<double>{1000, 4000}
            : std::vector<double>{500,   1000,  2000,  4000,  8000,
                                  16000, 32000, 40000, 48000, 56000,
                                  64000, 96000, 128000};

  std::vector<Level> levels;
  for (double qps : offered) {
    serve::ServerOptions options;
    options.port = 0;
    options.virtual_seconds_per_wall_second = virtual_rate;
    options.front_door.max_in_flight = 128;
    serve::ServeDaemon daemon(options);
    daemon.AddDefaultPlatforms();
    if (!daemon.Listen()) {
      std::perror("listen");
      return 1;
    }
    std::thread server_thread([&daemon] { daemon.Run(); });

    serve::LoadGenOptions load;
    load.port = daemon.port();
    load.offered_qps = qps;
    load.total_requests = static_cast<uint64_t>(qps * level_seconds);
    if (load.total_requests < 50) load.total_requests = 50;
    // Quarter-level warmup: long enough to reach every buffer's
    // high-water mark and fill the admission window before measuring.
    load.warmup_requests = std::max<uint64_t>(50, load.total_requests / 4);
    load.connections = kConnections;
    load.seed = 1;
    Level level;
    level.offered_qps = qps;
    level.report = serve::RunLoadGen(load);

    daemon.Stop();
    server_thread.join();
    level.shed_daemon = daemon.counters().shed;
    if (!level.report.connected || level.report.lost > 0) {
      std::fprintf(stderr, "level %.0f qps: loadgen failed (lost %llu)\n",
                   qps,
                   static_cast<unsigned long long>(level.report.lost));
      return 1;
    }
    levels.push_back(level);
  }

  double max_sustained = 0;
  for (const Level& level : levels) {
    if (level.report.shed_rate() <= kShedBudget &&
        level.report.achieved_qps > max_sustained) {
      max_sustained = level.report.achieved_qps;
    }
  }

  TextTable table({"Offered", "Achieved", "p50 ms", "p99 ms", "sa-p50",
                   "sa-p99", "Shed"});
  for (const Level& level : levels) {
    table.AddRow({StrFormat("%.0f", level.offered_qps),
                  StrFormat("%.0f", level.report.achieved_qps),
                  StrFormat("%.2f", level.report.latency_p50_ms),
                  StrFormat("%.2f", level.report.latency_p99_ms),
                  SaMs(level.report.shed_aware_p50_ms),
                  SaMs(level.report.shed_aware_p99_ms),
                  StrFormat("%.1f%%", level.report.shed_rate() * 100)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("max sustained: %.0f qps (shed <= %.0f%%, %u connections)\n",
              max_sustained, kShedBudget * 100, kConnections);

  // Zero-allocation steady-state contract: a warmed serving data plane
  // must not touch the heap. Enforced here (not just in the unit test)
  // so a regression fails BENCH=1 runs too — smoke included.
  const uint64_t warmup_cycles = smoke ? 64 : 256;
  const uint64_t probe_cycles = smoke ? 64 : 512;
  const uint64_t steady_allocs =
      SteadyStateAllocProbe(warmup_cycles, probe_cycles);
  if (steady_allocs == UINT64_MAX) {
    std::fprintf(stderr, "steady-state alloc probe harness failed\n");
    return 1;
  }
  std::printf("steady_state_serve_allocs: %llu (over %llu warmed cycles)\n",
              static_cast<unsigned long long>(steady_allocs),
              static_cast<unsigned long long>(probe_cycles));

  std::FILE* file = std::fopen(json_path, "w");
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(file,
               "{\n"
               "  \"benchmark\": \"serving\",\n"
               "  \"virtual_rate\": %.1f,\n"
               "  \"max_in_flight\": 128,\n"
               "  \"connections\": %u,\n"
               "  \"max_sustained_qps\": %.0f,\n"
               "  \"steady_state_serve_allocs\": %llu,\n"
               "  \"trajectory\": [\n"
               "    {\"pr\": 9, \"max_sustained_qps\": %.0f},\n"
               "    {\"pr\": 10, \"max_sustained_qps\": %.0f}\n"
               "  ],\n"
               "  \"levels\": [\n",
               virtual_rate, kConnections, max_sustained,
               static_cast<unsigned long long>(steady_allocs), kBaselineQps,
               max_sustained);
  for (size_t i = 0; i < levels.size(); ++i) {
    const Level& level = levels[i];
    std::fprintf(
        file,
        "    {\"offered_qps\": %.0f, \"achieved_qps\": %.0f,"
        " \"sent\": %llu, \"ok\": %llu, \"shed\": %llu,"
        " \"shed_rate\": %.4f, \"latency_p50_ms\": %.3f,"
        " \"latency_p99_ms\": %.3f, \"latency_p999_ms\": %.3f,"
        " \"shed_aware_p50_ms\": %.3f, \"shed_aware_p99_ms\": %.3f,"
        " \"shed_aware_p999_ms\": %.3f}%s\n",
        level.offered_qps, level.report.achieved_qps,
        static_cast<unsigned long long>(level.report.sent),
        static_cast<unsigned long long>(level.report.ok),
        static_cast<unsigned long long>(level.report.shed),
        level.report.shed_rate(), level.report.latency_p50_ms,
        level.report.latency_p99_ms, level.report.latency_p999_ms,
        level.report.shed_aware_p50_ms, level.report.shed_aware_p99_ms,
        level.report.shed_aware_p999_ms,
        i + 1 < levels.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %s\n", json_path);

  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu serving data-plane allocations in steady "
                 "state (want 0)\n",
                 static_cast<unsigned long long>(steady_allocs));
    return 1;
  }

  // Perf guard: only meaningful where the daemon and load generator are
  // not fighting for one core and the build is not instrumented.
  const bool guard_host =
      !smoke && !bench::kSanitized && std::thread::hardware_concurrency() >= 2;
  if (guard_host) {
    const double floor = 1.5 * kBaselineQps;
    if (max_sustained < floor) {
      std::fprintf(stderr,
                   "FAIL: max sustained %.0f qps below perf floor %.0f "
                   "(1.5x PR-9 baseline %.0f)\n",
                   max_sustained, floor, kBaselineQps);
      return 1;
    }
    std::printf("perf guard: %.0f qps >= floor %.0f (1.5x baseline)\n",
                max_sustained, floor);
  } else {
    std::printf(
        "perf guard: skipped (%s)\n",
        smoke ? "smoke run"
              : (bench::kSanitized ? "sanitizer build" : "single-core host"));
  }
  return 0;
}
