// serve_spanner: the serving path, request -> response through the epoll
// daemon. See perfbench/README.md for why the workload exists.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "serve/frame.h"
#include "serve/front_door.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace hp = hyperprof;
namespace hs = hyperprof::serve;

constexpr uint32_t kSpanner = 0;  // platform index in the default fleet
constexpr uint32_t kConnections = 4;
constexpr double kVirtualRate = 20.0;  // virtual seconds per wall second
// Above any in-flight count a run reaches, so CPU rather than admission
// sets the knee (checked: shed must stay 0).
constexpr uint64_t kMaxInFlight = uint64_t{1} << 20;
constexpr double kFixedRate = 10000;      // requests/s
constexpr double kWarmupRate = kFixedRate;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kBurstRequests = 8192;
constexpr double kProbeSeconds = 0.25;
constexpr int kProbeAttempts = 4;
constexpr double kStatsSeconds = 2.0;
constexpr double kDrainSeconds = 15.0;
constexpr double kLatencyLimitS = 0.100;  // p99 limit of serve.qps_at_slo
constexpr double kSearchResolution = 1.04;
constexpr uint64_t kSearches = 2;
constexpr double kMinSearchRate = 500;
constexpr double kReplayTickS = 100e-6;   // socketless admission batches

// Seed streams of the phases' arrival schedules.
uint64_t PhaseSeed(uint64_t seed, uint64_t phase) {
  return seed * 0x9e3779b97f4a7c15ULL + phase;
}

hs::ServerOptions DaemonOptions() {
  hs::ServerOptions options;
  options.virtual_seconds_per_wall_second = kVirtualRate;
  options.front_door.max_in_flight = kMaxInFlight;
  return options;
}

/** A listening daemon whose event loop runs on its own thread. */
struct LiveDaemon {
  std::unique_ptr<hs::ServeDaemon> daemon;
  std::thread loop;  // runs daemon->Run(); joined before daemon is reset

  LiveDaemon() = default;
  ~LiveDaemon() { Stop(); }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  void Stop() {
    if (loop.joinable()) {
      daemon->Stop();
      loop.join();
    }
  }
};

/** Set-up as users pay it: construct, add platforms, listen, start. */
double SetUpDaemon(LiveDaemon& live) {
  const double start = WallSeconds();
  {
    ScopedSpan setup_span("serve.setup");
    live.daemon = std::make_unique<hs::ServeDaemon>(DaemonOptions());
    for (const auto& spec : PaperSpecs()) {
      ScopedSpan span("platforms.add_platform");
      live.daemon->AddPlatform(spec);
    }
    ScopedSpan span("serve.listen");
    if (!live.daemon->Listen()) return -1;
    hs::ServeDaemon* daemon = live.daemon.get();
    live.loop = std::thread([daemon] { daemon->Run(); });
  }
  return WallSeconds() - start;
}

void LogRequests(const char* phase, const PhaseResult& result) {
  SpanRecorder* spans = ActiveSpans();
  if (spans == nullptr) return;
  for (size_t k = 0; k < result.due_s.size(); ++k) {
    spans->AddRequest(SpanRecorder::Request{result.first_id + k, phase,
                                            result.due_s[k], result.sent_s[k],
                                            result.received_s[k]});
  }
}

/** Counts every request of a phase and fails the ones not answered kOk. */
void AccountPhase(const char* phase, const PhaseResult& result,
                  RunReport& report) {
  report.Attempt(result.scheduled());
  const std::string tag = std::string(phase) + " phase: ";
  report.Fail(result.failures(),
              tag + std::to_string(result.shed) + " shed, " +
                  std::to_string(result.errors) + " errors, " +
                  std::to_string(result.lost) + " lost");
  report.Check(result.bad_frames == 0, tag + "bad or undecodable frames");
  report.Check(result.unmatched == 0, tag + "unknown or repeated ids");
  LogRequests(phase, result);
}

bool MeetsSlo(const PhaseResult& result) {
  // A growing backlog: outstanding requests rose by more than 2.5% of
  // the probe's requests between its second and last quarter, which a
  // sustained overload of about 5% produces and one short stall does not.
  const double allowed =
      std::max(16.0, 0.025 * static_cast<double>(result.sent));
  return Quantile(result.latency_s, 0.99) <= kLatencyLimitS &&
         result.backlog_growth <= allowed;
}

/** Daemon CPU and the client's view of one phase on the live daemon. */
struct MeasuredPhase {
  PhaseResult result;
  double daemon_cpu_s = 0;
};

MeasuredPhase RunMeasuredPhase(OpenLoopClient& client, LiveDaemon& live,
                               hs::RequestKind kind, double rate,
                               double seconds, uint64_t seed) {
  MeasuredPhase phase;
  const std::vector<double> schedule = PoissonSchedule(rate, seconds, seed);
  const double cpu_start = ThreadCpuSeconds(live.loop.native_handle());
  phase.result = client.RunPhase(kind, kSpanner, schedule, kDrainSeconds);
  phase.daemon_cpu_s = ThreadCpuSeconds(live.loop.native_handle()) - cpu_start;
  return phase;
}

double PerRequestUs(double seconds, uint64_t requests) {
  return requests > 0 ? 1e6 * seconds / static_cast<double>(requests) : 0;
}

/**
 * qps_at_slo: the highest offered rate whose p99 (from due time, misses
 * at +inf) stays within the limit without a growing backlog. A geometric
 * ramp from the fixed rate finds a missing rate, then bisection narrows
 * the bracket to kSearchResolution. A rate counts as missed only when
 * kProbeAttempts probes in a row miss: one stall (the host pausing the
 * VM for tens of milliseconds, which a 4-core shared host does several
 * times a minute) should not set the knee; a rate the daemon cannot
 * sustain misses every time.
 */
double SearchQpsAtSlo(OpenLoopClient& client, LiveDaemon& live, uint64_t seed,
                      RunReport& report) {
  double lo = 0;
  double hi = 0;
  uint64_t probe = 0;
  auto probe_once = [&](double rate) {
    const MeasuredPhase phase =
        RunMeasuredPhase(client, live, hs::RequestKind::kQuery, rate,
                         kProbeSeconds, PhaseSeed(seed, 16 + probe++));
    const PhaseResult& result = phase.result;
    AccountPhase("probe", result, report);
    const bool met = MeetsSlo(result);
    std::printf(
        "  probe %8.0f/s  p99 %9.3f ms  backlog %+8.1f  late p99 %7.3f ms  "
        "daemon %6.2f us/query  %s\n",
        rate, 1e3 * std::min(Quantile(result.latency_s, 0.99), 1e9),
        result.backlog_growth, 1e3 * Quantile(result.late_s, 0.99),
        PerRequestUs(phase.daemon_cpu_s, result.ok), met ? "meets" : "misses");
    return met;
  };
  auto run_probe = [&](double rate) {
    for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
      if (probe_once(rate)) return true;
    }
    return false;
  };
  while (hi == 0) {
    const double rate = lo == 0 ? kFixedRate : lo * 1.5;
    if (run_probe(rate)) {
      lo = rate;
    } else {
      hi = rate;
    }
  }
  // The fixed rate missed: halve until a rate meets (0 if none does).
  while (lo == 0 && hi > 2 * kMinSearchRate) {
    const double rate = hi / 2;
    if (run_probe(rate)) {
      lo = rate;
    } else {
      hi = rate;
    }
  }
  if (lo == 0) return 0;
  while (hi / lo > kSearchResolution) {
    const double mid = std::sqrt(lo * hi);
    if (run_probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double AnsweredPerSecond(const PhaseResult& result) {
  const double span = result.last_response_s - result.first_due_s;
  return span > 0 ? static_cast<double>(result.ok) / span : 0;
}

/**
 * Response sink of the socketless replay: serializes each response the
 * way the daemon does, framed in place into an output buffer.
 */
class ReplaySink : public hs::VirtualFrontDoor::ResponseSink {
 public:
  void OnResponse(uint64_t ticket, hs::Response& response) override {
    ScopedSpan span("serve.codec");
    response.id = ticket;
    if (response.status == hs::ResponseStatus::kOk) ++ok_;
    const size_t start = hs::BeginFrame(out_);
    hs::EncodeResponse(response, out_);
    hs::EndFrame(out_, start);
  }
  void ClearOutput() { out_.clear(); }
  uint64_t ok() const { return ok_; }

 private:
  std::vector<uint8_t> out_;
  uint64_t ok_ = 0;
};

/**
 * The serve.codec / admit / pump layers without sockets: the fixed-rate
 * schedule replayed through a VirtualFrontDoor on the same virtual clock
 * (kVirtualRate), every call spanned.
 */
void ReplaySocketless(uint64_t seed, double fixed_seconds, RunReport& report) {
  hs::FrontDoorOptions options = DaemonOptions().front_door;
  hs::VirtualFrontDoor door(options);
  for (const auto& spec : PaperSpecs()) door.AddPlatform(spec);
  ReplaySink sink;
  door.set_sink(&sink);
  door.Start();

  // Frame every request up front (client work, not measured).
  const std::vector<double> schedule =
      PoissonSchedule(kFixedRate, fixed_seconds, PhaseSeed(seed, 2));
  std::vector<uint8_t> wire;
  std::vector<size_t> frame_end;
  hp::protowire::WireBuffer scratch;
  for (size_t k = 0; k < schedule.size(); ++k) {
    hs::Request request;
    request.id = k;
    request.platform = kSpanner;
    scratch.clear();
    hs::EncodeRequest(request, scratch);
    hs::EncodeFrame(scratch.data(), scratch.size(), wire);
    frame_end.push_back(wire.size());
  }

  const hp::SimTime origin = door.virtual_now();
  auto virtual_at = [&](double wall_s) {
    return origin + hp::SimTime::FromSeconds(wall_s * kVirtualRate);
  };
  hs::FrameDecoder decoder;
  std::vector<hs::Request> batch;
  std::vector<uint64_t> tickets;
  uint64_t decode_failures = 0;
  size_t next = 0;
  size_t consumed = 0;
  while (next < schedule.size()) {
    // One daemon wake: pump to now, then decode and admit what arrived.
    const double tick_start = schedule[next];
    {
      ScopedSpan span("serve.pump");
      door.Pump(virtual_at(tick_start));
    }
    size_t end = next;
    while (end < schedule.size() && schedule[end] < tick_start + kReplayTickS) {
      ++end;
    }
    batch.clear();
    tickets.clear();
    {
      ScopedSpan span("serve.codec");
      const size_t bytes = frame_end[end - 1] - consumed;
      uint8_t* dst = decoder.WritableSpan(bytes);
      std::copy(wire.begin() + consumed, wire.begin() + consumed + bytes, dst);
      decoder.CommitBytes(bytes);
      consumed += bytes;
      hs::FrameView view;
      while (decoder.NextView(&view) == hs::FrameDecoder::Status::kFrame) {
        hs::Request request;
        if (!hs::DecodeRequest(view.data, view.size, &request)) {
          ++decode_failures;
          continue;
        }
        batch.push_back(request);
        tickets.push_back(request.id);
      }
    }
    {
      ScopedSpan span("serve.admit");
      door.SubmitTicketedBatch(batch.data(), tickets.data(), batch.size());
    }
    sink.ClearOutput();
    next = end;
  }
  {
    ScopedSpan span("serve.pump");
    // Drain: every admitted query completes within a few virtual seconds;
    // the bound only keeps a bug from spinning here forever.
    hp::SimTime until = virtual_at(schedule.empty() ? 0 : schedule.back());
    for (int second = 0;
         second < 600 && door.Pump(until += hp::SimTime::FromSeconds(1.0));
         ++second) {
    }
  }
  const uint64_t queries = schedule.size();
  report.Attempt(queries);
  report.Fail(queries - std::min(queries, sink.ok()),
              "socketless replay: queries not answered");
  report.Check(decode_failures == 0, "socketless replay: undecodable frames");
  report.Check(door.counters().shed == 0, "socketless replay: shed queries");

  const SpanRecorder& spans = *ActiveSpans();
  const auto layers = spans.ByLayer();
  auto self_us = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : PerRequestUs(it->second.self_s, queries);
  };
  report.Set("serve.codec_us_per_query", self_us("serve.codec"), "us");
  report.Set("serve.admit_us_per_query", self_us("serve.admit"), "us");
  report.Set("serve.pump_us_per_query", self_us("serve.pump"), "us");
  std::vector<double> pumps = spans.Durations("serve.pump");
  pumps.pop_back();  // the final drain is not a daemon wake
  report.Set("serve.pump_p99_ms", 1e3 * Quantile(pumps, 0.99), "ms");
  report.Set("serve.pump_max_ms", 1e3 * Quantile(pumps, 1.0), "ms");
  report.Set("serve.pump_samples", static_cast<double>(pumps.size()), "count");
  report.Set("serve.events_per_query",
             static_cast<double>(door.fleet().total_events_executed()) /
                 static_cast<double>(queries),
             "count");
  const auto memory = door.fleet().MemoryStats();
  report.Set("mem.kernel_mb", static_cast<double>(memory.kernel_bytes) / 1e6,
             "MB");
  report.Set("mem.tracer_mb", static_cast<double>(memory.tracer_bytes) / 1e6,
             "MB");
  report.Set("mem.profiler_mb", static_cast<double>(memory.profiler_bytes) / 1e6,
             "MB");
  report.Set("mem.bytes_per_served_query",
             static_cast<double>(memory.total_bytes) / static_cast<double>(queries),
             "B");
  door.Finish();
}

}  // namespace

void RunServeWorkload(const RunArgs& args, RunReport& report) {
  // Set up kSetupsPerRun daemons (the traced run spans the last one);
  // the last one takes the traffic.
  SpanRecorder spans;
  std::vector<double> setups;
  LiveDaemon live;
  double rss_setup_mb = 0;
  for (size_t i = 0; i < kSetupsPerRun; ++i) {
    if (i > 0) {
      live.Stop();
      live.daemon.reset();
      ReleaseFreedMemory();
    }
    const bool traced = args.trace && i + 1 == kSetupsPerRun;
    if (traced) SetActiveSpans(&spans);
    const double seconds = SetUpDaemon(live);
    SetActiveSpans(nullptr);
    if (!report.Check(seconds >= 0, "daemon could not listen")) return;
    setups.push_back(seconds);
    rss_setup_mb = CurrentRssMb();
  }

  OpenLoopClient client;
  if (!report.Check(client.Connect(live.daemon->port(), kConnections),
                    "could not connect to the daemon")) {
    return;
  }
  // Warm-up: steady traffic, then a burst that lifts every daemon buffer
  // and table above the high-water mark the fixed phase reaches, so the
  // fixed phase can be held to zero data-plane allocations.
  AccountPhase("warmup",
               client.RunPhase(hs::RequestKind::kQuery, kSpanner,
                               PoissonSchedule(kWarmupRate, kWarmupSeconds,
                                               PhaseSeed(args.seed, 1)),
                               kDrainSeconds),
               report);
  AccountPhase("burst",
               client.RunPhase(hs::RequestKind::kQuery, kSpanner,
                               std::vector<double>(kBurstRequests, 0.0),
                               kDrainSeconds),
               report);

  // The fixed-rate phase takes a fifth of the measuring time.
  const double fixed_seconds = std::max(1.0, args.seconds / 5);
  hs::StatsSummary before, after;
  report.Check(client.Stats(&before), "kStats before the fixed phase");
  const MeasuredPhase fixed =
      RunMeasuredPhase(client, live, hs::RequestKind::kQuery, kFixedRate,
                       fixed_seconds, PhaseSeed(args.seed, 2));
  report.Check(client.Stats(&after), "kStats after the fixed phase");
  AccountPhase("fixed", fixed.result, report);
  const uint64_t steady_allocs = after.serve_allocs - before.serve_allocs;
  report.Check(steady_allocs == 0,
               "serve_allocs grew by " + std::to_string(steady_allocs) +
                   " over the fixed phase");
  const double cpu_us = PerRequestUs(fixed.daemon_cpu_s, fixed.result.ok);
  std::printf("fixed %0.f/s: p50 %.3f ms  p99 %.3f ms  late p99 %.3f ms  "
              "daemon %.2f us/query\n",
              kFixedRate, 1e3 * Quantile(fixed.result.latency_s, 0.5),
              1e3 * Quantile(fixed.result.latency_s, 0.99),
              1e3 * Quantile(fixed.result.late_s, 0.99), cpu_us);

  SpanRecorder replay_spans;
  if (args.trace) {
    // The traced pass of the fixed phase (request log kept) next to the
    // untraced one above: their difference is the tracing overhead.
    SetActiveSpans(&spans);
    MeasuredPhase traced;
    {
      ScopedSpan span("serve.fixed_phase");
      traced = RunMeasuredPhase(client, live, hs::RequestKind::kQuery,
                                kFixedRate, fixed_seconds,
                                PhaseSeed(args.seed, 2));
    }
    AccountPhase("fixed-traced", traced.result, report);
    SetActiveSpans(nullptr);
    report.Set("trace.overhead_setup_s",
               setups.back() - Median({setups.begin(), setups.end() - 1}), "s");
    report.Set("trace.overhead_queries_per_s",
               AnsweredPerSecond(traced.result) - AnsweredPerSecond(fixed.result),
               "1/s");
    report.Set("trace.overhead_cpu_us_per_query",
               PerRequestUs(traced.daemon_cpu_s, traced.result.ok) - cpu_us, "us");

    // The data plane with no simulation: kStats only.
    const MeasuredPhase stats =
        RunMeasuredPhase(client, live, hs::RequestKind::kStats, kFixedRate,
                         kStatsSeconds, PhaseSeed(args.seed, 3));
    AccountPhase("stats", stats.result, report);
    report.Set("serve.stats_cpu_us_per_req",
               PerRequestUs(stats.daemon_cpu_s, stats.result.ok), "us");

    // The knee: independent searches a few seconds apart, averaged
    // geometrically, since the knee follows the host's speed, which
    // drifts within seconds here. It stays a traced-run metric because
    // it does not repeat within the largest bound across runs.
    double log_knee_sum = 0;
    for (uint64_t search = 1; search <= kSearches; ++search) {
      std::printf("qps_at_slo search %llu (p99 <= %.0f ms, no backlog "
                  "growth):\n",
                  static_cast<unsigned long long>(search),
                  1e3 * kLatencyLimitS);
      const double knee = SearchQpsAtSlo(
          client, live, PhaseSeed(args.seed, search << 32), report);
      std::printf("  knee %.0f/s\n", knee);
      log_knee_sum += knee > 0 ? std::log(knee) : -HUGE_VAL;
    }
    report.Set("serve.qps_at_slo", std::exp(log_knee_sum / kSearches), "1/s");
  }

  hs::StatsSummary final_stats;
  report.Check(client.Stats(&final_stats), "final kStats");
  report.Check(final_stats.shed == 0, "admission shed queries");
  report.Check(final_stats.offered == final_stats.admitted + final_stats.shed &&
                   final_stats.admitted ==
                       final_stats.completed + final_stats.in_flight &&
                   final_stats.responses == final_stats.completed &&
                   final_stats.in_flight == 0,
               "serving counters do not balance");
  live.Stop();
  const hs::DaemonStats daemon_stats = live.daemon->stats();
  report.Check(daemon_stats.protocol_errors == 0, "daemon protocol errors");
  report.Check(daemon_stats.dropped_responses == 0, "daemon dropped responses");
  const double peak_rss_mb = PeakRssMb();
  live.daemon.reset();
  ReleaseFreedMemory();

  if (!args.trace) {
    report.Set("setup_s", Median(setups), "s");
    report.Set("peak_rss_mb", peak_rss_mb, "MB");
    report.Set("cpu_us_per_query", cpu_us, "us");
    report.Set("queries_per_s", AnsweredPerSecond(fixed.result), "1/s");
    return;
  }
  const PhaseResult& result = fixed.result;
  report.Set("platforms.add_platform_s",
             spans.TotalSeconds("platforms.add_platform"), "s");
  report.Set("mem.rss_setup_mb", rss_setup_mb, "MB");
  report.Set("serve.fixed_p50_ms", 1e3 * Quantile(result.latency_s, 0.5), "ms");
  report.Set("serve.fixed_p99_ms", 1e3 * Quantile(result.latency_s, 0.99), "ms");
  report.Set("serve.fixed_samples", static_cast<double>(result.sent), "count");
  report.Set("loadgen.late_p99_ms", 1e3 * Quantile(result.late_s, 0.99), "ms");
  report.Set("loadgen.outstanding_max",
             static_cast<double>(result.outstanding_max), "count");
  report.Set("serve.steady_allocs", static_cast<double>(steady_allocs), "count");
  report.Set("serve.protocol_errors",
             static_cast<double>(daemon_stats.protocol_errors), "count");
  report.Set("serve.dropped_responses",
             static_cast<double>(daemon_stats.dropped_responses), "count");

  SetActiveSpans(&replay_spans);
  ReplaySocketless(args.seed, fixed_seconds, report);
  SetActiveSpans(nullptr);
  report.Set("serve.loop_us_per_query",
             cpu_us - report.Get("serve.codec_us_per_query") -
                 report.Get("serve.admit_us_per_query") -
                 report.Get("serve.pump_us_per_query"),
             "us");
  MeasurePrewarm(args.seed, report);
  report.Check(FinishTrace(spans, args.spans_path), "spans not written");
  report.Check(FinishTrace(replay_spans,
                           args.spans_path.empty()
                               ? ""
                               : args.spans_path + ".replay.json"),
               "replay spans not written");
}

}  // namespace perfbench
