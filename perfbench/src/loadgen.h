#ifndef HYPERPROF_PERFBENCH_LOADGEN_H_
#define HYPERPROF_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "serve/frame.h"
#include "serve/protocol.h"

namespace perfbench {

/**
 * Arrival times (seconds from the phase start) of a Poisson process at
 * `rate` per second over `seconds`, drawn from `seed` alone.
 */
std::vector<double> PoissonSchedule(double rate, double seconds, uint64_t seed);

/** The client's view of one open-loop phase. */
struct PhaseResult {
  uint64_t sent = 0;
  uint64_t ok = 0;          // kOk, own id, first answer
  uint64_t shed = 0;        // kShed responses
  uint64_t errors = 0;      // kError responses
  uint64_t bad_frames = 0;  // CRC failures and undecodable payloads
  uint64_t unmatched = 0;   // unknown id, or a second answer for one id
  uint64_t lost = 0;        // unanswered (or unsent) when the phase ended
  // Per request, in schedule order: latency from the due time (+inf for
  // every request not answered kOk) and how late it was sent.
  std::vector<double> latency_s;
  std::vector<double> late_s;
  std::vector<double> due_s;       // wall clock (WallSeconds)
  std::vector<double> sent_s;
  std::vector<double> received_s;  // < 0: never answered
  uint64_t first_id = 0;
  double first_due_s = 0;
  double last_response_s = 0;
  uint64_t outstanding_max = 0;  // sent but unanswered, at any moment
  // Mean outstanding requests over the last quarter of the send window
  // minus over its second quarter: > 0 means a growing backlog.
  double backlog_growth = 0;

  uint64_t scheduled() const { return due_s.size(); }
  uint64_t failures() const { return scheduled() - ok; }
};

/**
 * The benchmark's open-loop generator: one thread, several loopback
 * connections served round-robin, requests sent on a precomputed
 * schedule regardless of responses, and every response matched to its
 * request by id. Latency is timed from each request's due time, so a
 * generator that falls behind charges its own delay to the requests it
 * sent late instead of hiding it.
 */
class OpenLoopClient {
 public:
  OpenLoopClient() = default;
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  bool Connect(uint16_t port, uint32_t connections);

  /**
   * Sends `kind` requests for `platform` at the times `schedule` gives
   * (seconds from now), then waits until each is answered or `drain_s`
   * has passed since the last send.
   */
  PhaseResult RunPhase(hyperprof::serve::RequestKind kind, uint32_t platform,
                       const std::vector<double>& schedule, double drain_s);

  /** One synchronous kStats round trip; false on any failure. */
  bool Stats(hyperprof::serve::StatsSummary* stats);

 private:
  struct Conn {
    int fd = -1;
    hyperprof::serve::FrameDecoder decoder;
    std::vector<uint8_t> out;
    size_t out_offset = 0;
  };

  /** Sends what each socket takes; false when a socket failed. */
  bool Flush();
  /**
   * Receives what `conn` has into its frame decoder; false when the
   * connection closed or failed.
   */
  bool Receive(Conn& conn);

  std::vector<Conn> conns_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // HYPERPROF_PERFBENCH_LOADGEN_H_
