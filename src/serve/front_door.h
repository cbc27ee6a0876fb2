#ifndef HYPERPROF_SERVE_FRONT_DOOR_H_
#define HYPERPROF_SERVE_FRONT_DOOR_H_

#include <cstdint>
#include <memory>

#include "platforms/fleet.h"
#include "serve/protocol.h"

namespace hyperprof::serve {

/** Admission bookkeeping of a serving session. */
struct ServingCounters {
  uint64_t offered = 0;    // query requests received
  uint64_t admitted = 0;   // admitted into the simulated fleet
  uint64_t shed = 0;       // refused by admission control (overload)
  uint64_t completed = 0;  // admitted queries that finished
  uint64_t responses = 0;  // ok query responses delivered (== completed)

  uint64_t in_flight() const { return admitted - completed; }
};

struct FrontDoorOptions {
  /**
   * Fleet configuration. queries_per_platform is forced to zero — a
   * serving fleet has no batch workload; every query enters through
   * SubmitTicketed. Sharded platforms are not supported (a sharded engine
   * owns a fixed query partition): the door aborts on a nonzero
   * shards_per_platform. Trace retention defaults to kSampleReservoir: a
   * daemon runs for its whole life, so it keeps trace_reservoir_capacity
   * traces rather than every sampled one, and its breakdowns are
   * unchanged by the bound.
   */
  platforms::FleetConfig fleet;
  /**
   * Admission-control bound: queries in flight across the fleet. By
   * Little's law the sustainable throughput is roughly
   * max_in_flight / mean_virtual_latency; offered load beyond that sheds.
   */
  uint64_t max_in_flight = 256;
  /** Most-recent windows returned per kWindows request. */
  size_t windows_limit = 8;

  FrontDoorOptions() {
    fleet.queries_per_platform = 0;
    fleet.trace_retention = profiling::TraceRetention::kSampleReservoir;
  }
};

/**
 * The socketless core of the serving front door: admission control, query
 * execution in virtual time, and response production over an incremental
 * FleetSimulation (Start / Advance / Finish).
 *
 * Requests are admitted at the fleet's current virtual time; completions
 * fire from inside Pump(), which advances virtual time to a new horizon.
 * The caller owns the mapping from wall-clock to virtual time (the epoll
 * daemon paces it by elapsed wall time; tests and benches pump
 * deterministically). Everything here is single-threaded by design — the
 * daemon runs one event loop — and deterministic given the same admission
 * sequence at the same virtual times.
 */
class VirtualFrontDoor {
 public:
  /**
   * Allocation-free response delivery. The daemon registers one sink;
   * every response — synchronous (shed/error/windows/stats) or a
   * completion fired from inside Pump() — arrives here tagged with the
   * submission's ticket. `response` is mutable so the receiver can stamp
   * its own request id (completions carry id 0; the front door does not
   * retain request ids for admitted queries) and serialize in place. The
   * reference is only valid for the duration of the call.
   */
  class ResponseSink {
   public:
    virtual ~ResponseSink() = default;
    virtual void OnResponse(uint64_t ticket, Response& response) = 0;
  };

  explicit VirtualFrontDoor(FrontDoorOptions options);
  ~VirtualFrontDoor();

  VirtualFrontDoor(const VirtualFrontDoor&) = delete;
  VirtualFrontDoor& operator=(const VirtualFrontDoor&) = delete;

  /** Registers a platform before Start(). */
  void AddPlatform(platforms::PlatformSpec spec);
  /** The three paper platforms with their calibrated specs. */
  void AddDefaultPlatforms();

  /** Opens the door (starts the incremental fleet run). */
  void Start();

  /** Registers the response sink. Required before SubmitTicketed. */
  void set_sink(ResponseSink* sink) { sink_ = sink; }

  /**
   * Exposes the daemon's steady-state allocation counter through kStats
   * responses (StatsSummary::serve_allocs). Optional; null reports 0.
   */
  void set_serve_allocs_counter(const uint64_t* counter) {
    serve_allocs_counter_ = counter;
  }

  /**
   * Handles one decoded request; every response reaches the registered
   * ResponseSink with `ticket`. kWindows/kStats respond synchronously;
   * kQuery either sheds synchronously (overload: the sink fires before
   * SubmitTicketed returns) or admits the query, whose response fires
   * from inside a later Pump() once it completes in virtual time. The
   * whole path — admission, completion, delivery — allocates nothing.
   */
  void SubmitTicketed(const Request& request, uint64_t ticket);

  /**
   * Handles a batch of decoded requests in arrival order, exactly as
   * `count` SubmitTicketed calls — the daemon calls this once per epoll
   * wake, then pumps once.
   */
  void SubmitTicketedBatch(const Request* requests, const uint64_t* tickets,
                           size_t count);

  /**
   * Advances the fleet's virtual clock to absolute time `until`, firing
   * completions for every admitted query that finishes by then. Returns
   * true while simulated work remains pending past `until`.
   */
  bool Pump(SimTime until);

  /** Drains in-flight work and finalizes the fleet (post-run merges). */
  void Finish();

  SimTime virtual_now() const { return virtual_now_; }
  const ServingCounters& counters() const { return counters_; }
  const platforms::FleetSimulation& fleet() const { return *fleet_; }
  platforms::FleetSimulation& fleet() { return *fleet_; }

 private:
  /** Engine ServingSink trampoline: `ctx` is the VirtualFrontDoor. */
  static void EngineSinkThunk(void* ctx, uint64_t ticket, SimTime latency);
  void OnEngineComplete(uint64_t ticket, SimTime latency);
  void FillWindows(const Request& request, Response* response);
  void FillStats(Response* response);

  FrontDoorOptions options_;
  std::unique_ptr<platforms::FleetSimulation> fleet_;
  SimTime virtual_now_;
  ServingCounters counters_;
  ResponseSink* sink_ = nullptr;
  const uint64_t* serve_allocs_counter_ = nullptr;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace hyperprof::serve

#endif  // HYPERPROF_SERVE_FRONT_DOOR_H_
