#ifndef HYPERPROF_SERVE_SERVER_H_
#define HYPERPROF_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "serve/frame.h"
#include "serve/front_door.h"

namespace hyperprof::serve {

/** Socket-layer accounting of one daemon run. */
struct DaemonStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t protocol_errors = 0;    // bad frame / undecodable request
  uint64_t dropped_responses = 0;  // completion after the peer hung up
};

struct ServerOptions {
  /** TCP port to bind on loopback; 0 picks an ephemeral port. */
  uint16_t port = 0;
  /**
   * Virtual seconds advanced per wall-clock second. The simulated fleet
   * executes in virtual time; this rate is what turns it into a live
   * service — queries admitted now complete a (virtual) latency later on
   * the wall clock. 1.0 = real time.
   */
  double virtual_seconds_per_wall_second = 1.0;
  FrontDoorOptions front_door;
};

/**
 * The epoll front-door daemon: a single-threaded event loop multiplexing
 * nonblocking loopback connections, decoding pipelined length-prefixed
 * frames (serve/frame.h) into requests, admitting queries into the
 * simulated fleet in virtual time, and streaming responses — including
 * live continuous-profiling window snapshots — back over the same
 * connection.
 *
 * Data-plane design (DESIGN.md §16): bytes are received straight into the
 * connection's frame-decoder buffer (no staging copy), every request
 * decoded from one readable event is admitted as one batch before the
 * next Pump, and responses are serialized directly into the connection's
 * output buffers — a draining front buffer and an accumulating back
 * buffer flushed together by one scatter-gather sendmsg. Admitted queries
 * are identified by recycled ticket slots rather than per-request
 * callbacks, so a warmed steady state performs zero heap allocations
 * (tracked by serve_allocs(), surfaced through kStats).
 *
 * Wall-clock time paces virtual time (ServerOptions rate); admitted
 * queries complete inside the periodic pump and their responses are
 * written when the owning connection is writable. A connection that
 * sends a corrupt, oversized, or undecodable frame is closed immediately
 * (frame streams cannot be resynchronized); responses completing after a
 * peer hung up are counted and dropped.
 *
 * Lifecycle: Listen() binds, Run() blocks until Stop() (thread-safe,
 * self-pipe wakeup), then drains in-flight virtual work, flushes
 * responses, and finalizes the fleet. Tests may instead call RunOnce()
 * repeatedly from one thread and Shutdown() at the end.
 */
class ServeDaemon : private VirtualFrontDoor::ResponseSink {
 public:
  explicit ServeDaemon(ServerOptions options);
  ~ServeDaemon() override;

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /** Registers a platform before Listen(). */
  void AddPlatform(platforms::PlatformSpec spec);
  void AddDefaultPlatforms();

  /** Binds and listens on loopback. False (with errno set) on failure. */
  bool Listen();

  /** Bound port (valid after Listen; the ephemeral pick when port=0). */
  uint16_t port() const { return port_; }

  /** Runs the event loop until Stop(). Call from one thread only. */
  void Run();

  /**
   * One event-loop iteration: paces virtual time, pumps completions,
   * flushes queued responses, and dispatches socket events (waiting at
   * most `timeout_ms`). For steppable single-threaded harnesses; Run()
   * is a RunOnce loop plus Shutdown().
   */
  void RunOnce(int timeout_ms);

  /** Drains in-flight virtual work, flushes, finalizes the fleet. */
  void Shutdown();

  /** Thread-safe shutdown request; Run() drains and returns. */
  void Stop();

  const DaemonStats& stats() const { return stats_; }
  const ServingCounters& counters() const { return front_door_.counters(); }
  const VirtualFrontDoor& front_door() const { return front_door_; }

  /**
   * Serving-data-plane heap allocations observed so far: decoder buffer
   * growth, output buffer growth, and bookkeeping-table growth. Warmup
   * grows every buffer to its high-water mark; a zero delta across a
   * steady-state window is the zero-allocation contract the memory test
   * and the bench's steady_state_serve_allocs guard pin.
   */
  uint64_t serve_allocs() const { return serve_allocs_; }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;  // routing key for completions (never reused)
    FrameDecoder decoder;
    // Double-buffered output ring: `out_front` is draining (from
    // out_offset), `out_back` accumulates newly serialized responses.
    // One sendmsg writes both; when the front empties the buffers swap,
    // so capacity is recycled and bytes are never memmoved.
    std::vector<uint8_t> out_front;
    size_t out_offset = 0;
    std::vector<uint8_t> out_back;
    bool want_write = false;    // EPOLLOUT currently armed
    bool in_flush_list = false;  // queued in pending_flush_
  };

  /** Ticket slot: which connection + client request id a completion is
   * for. Slots are recycled through free_pending_. */
  struct PendingRequest {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
  };

  /** VirtualFrontDoor::ResponseSink: serialize into the owning
   * connection's back buffer and schedule a flush. */
  void OnResponse(uint64_t ticket, Response& response) override;

  void EnsureStarted();
  void AcceptReady();
  void HandleReadable(Connection* conn);
  uint64_t AllocTicket(uint64_t conn_id, uint64_t request_id);
  /** Writes as much pending output as the socket takes; arms EPOLLOUT. */
  void FlushConnection(Connection* conn);
  bool HasPendingOutput(const Connection* conn) const {
    return conn->out_offset < conn->out_front.size() ||
           !conn->out_back.empty();
  }
  void CloseConnection(Connection* conn);
  void UpdateEpoll(Connection* conn);
  /** Best-effort blocking flush of every connection (shutdown path). */
  void DrainAndFlush();

  ServerOptions options_;
  VirtualFrontDoor front_door_;
  DaemonStats stats_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  // Held open so the daemon can still accept, and shed, a pending
  // connection when the process is out of descriptors.
  int reserve_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Stop() wakes epoll_wait
  std::atomic<bool> stop_{false};
  bool serving_started_ = false;
  std::chrono::steady_clock::time_point wall_start_;
  SimTime virtual_start_;
  uint64_t next_connection_id_ = 1;
  uint64_t serve_allocs_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> by_fd_;
  std::unordered_map<uint64_t, Connection*> by_id_;
  std::vector<uint64_t> pending_flush_;  // queued by completions in Pump()
  // Ticket table: slot index == ticket (exactly one response per ticket).
  std::vector<PendingRequest> pending_;
  std::vector<uint32_t> free_pending_;
  // Per-readable-event admission batch (capacity recycled).
  std::vector<Request> batch_requests_;
  std::vector<uint64_t> batch_tickets_;
};

}  // namespace hyperprof::serve

#endif  // HYPERPROF_SERVE_SERVER_H_
