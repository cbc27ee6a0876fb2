#ifndef HYPERPROF_NET_RPC_H_
#define HYPERPROF_NET_RPC_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/inline_function.h"
#include "common/record_pool.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "net/fault.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hyperprof::net {

/** Shape of one RPC exchange. */
struct RpcOptions {
  // Diagnostic method name ("spanner.Read"). A view, not a string: call
  // sites issue millions of RPCs with a fixed method population, so they
  // point at literals or pre-built strings that outlive the call instead
  // of allocating a copy per RPC. A policy call keeps the view for its
  // retries, so it must outlive the whole call.
  std::string_view method;
  uint64_t request_bytes = 0;   // wire size of the request
  uint64_t response_bytes = 0;  // wire size of the response
  // When set, the network-jitter and fault draws for this exchange come
  // from this stream instead of the RpcSystem / FaultModel streams. Shard
  // engines point it at the issuing query's private stream so draw order
  // is a property of the query, not of which other queries share the
  // kernel. Read only during the synchronous prefix of Call/CallFixed;
  // policy calls retain the pointer across retries, so callers combining
  // both must keep the stream alive until completion.
  Rng* rng = nullptr;
};

/** Completion record handed to the caller's callback. */
struct RpcResult {
  Status status;         // kOk on success; injected/transport failures here
  SimTime issued_at;
  SimTime completed_at;
  SimTime network_time;  // request + response transport time
  SimTime server_time;   // time spent inside the handler
  SimTime Total() const { return completed_at - issued_at; }
  bool ok() const { return status.ok(); }
};

/**
 * Client-side resilience policy for one logical call: per-attempt timeout,
 * bounded retries with exponential backoff and jitter, and an optional
 * hedged second request fired when the first attempt is still outstanding
 * after `hedge_delay` (production systems derive that from a latency
 * percentile — see RpcSystem::LatencyQuantile).
 *
 * The zero-initialized policy is "plain": one attempt, no timers, no
 * draws — bit-identical to the legacy Call path, which is what keeps
 * fault-free runs unperturbed by the resilience layer.
 */
struct RpcCallPolicy {
  SimTime timeout;               // per attempt; Zero = none
  uint32_t max_attempts = 1;     // total wire attempts, hedge included
  SimTime backoff_base = SimTime::Millis(1);
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.0;   // in [0,1): +/- fraction of the backoff
  SimTime hedge_delay;           // Zero = no hedging; at most one hedge

  bool Plain() const {
    return timeout == SimTime::Zero() && max_attempts <= 1 &&
           hedge_delay == SimTime::Zero();
  }
};

/**
 * StatusOr-style completion record of a policy call: either the winning
 * attempt's RpcResult or the error that exhausted the policy, plus the
 * attempt-level accounting the profiling layer turns into "wasted work"
 * reports.
 */
struct RpcOutcome {
  Status status;
  RpcResult result;      // winning attempt; meaningful when ok()
  uint32_t attempts = 0; // wire attempts issued (hedge included)
  uint32_t failures = 0; // attempts that errored or timed out
  bool hedged = false;   // a hedged attempt was issued
  bool hedge_won = false;
  SimTime wasted_time;   // in-flight time of failed + abandoned attempts

  bool ok() const { return status.ok(); }
  StatusOr<RpcResult> ToStatusOr() const {
    if (status.ok()) return result;
    return status;
  }
};

/**
 * Flow-level RPC layer over the NetworkModel.
 *
 * A call transports the request, runs the server handler (which finishes by
 * invoking its `respond` continuation, possibly after more simulated work),
 * transports the response, then completes the caller. Per-method latency
 * statistics are kept for reporting, mirroring what Dapper-style tracing
 * exposes in production.
 *
 * An installed FaultModel can drop, reject, or slow individual attempts;
 * CallWithPolicy layers timeouts, retries, and hedging on top so callers
 * observe tail-tolerant behaviour instead of raw faults. Failures surface
 * as common::Status on RpcResult / RpcOutcome — a plain Call never hangs:
 * a dropped request with no policy above it completes with kUnavailable
 * once its round trip would have finished.
 *
 * The run path allocates nothing once warm: each wire exchange and each
 * policy call lives in a record pooled by this system, and every kernel
 * event and responder captures only the system and that record
 * (DESIGN.md §18).
 */
class RpcSystem {
 private:
  struct Exchange;
  struct PolicyCall;
  using ExchangeRef = RecordPool<Exchange>::Ref;
  using CallRef = RecordPool<PolicyCall>::Ref;

 public:
  /**
   * The server side's handle on one wire exchange: invoking it sends the
   * response. Copyable, so a handler can pass it to a later event (it is
   * a valid Simulator::Callback), but invoked exactly once.
   */
  class Responder {
   public:
    void operator()() const { system_->Respond(exchange_); }

   private:
    friend class RpcSystem;
    Responder(RpcSystem* system, ExchangeRef exchange)
        : system_(system), exchange_(std::move(exchange)) {}

    RpcSystem* system_;
    ExchangeRef exchange_;
  };

  /** Handler runs at the server; it must invoke `respond` exactly once. */
  using Handler = InlineFunction<void(Responder respond)>;
  using PolicyCompletion = InlineFunction<void(const RpcOutcome&)>;
  // Room for a whole PolicyCompletion, which a plain policy call wraps.
  using Completion =
      InlineFunction<void(const RpcResult&), sizeof(PolicyCompletion)>;

 private:
  /** One wire exchange: request transport, handler, response transport. */
  struct Exchange {
    RpcResult result;
    SimTime response_time;
    SimTime handler_start;
    Handler handler;  // cleared once it has run
    Completion on_complete;

    void Recycle() {
      handler = nullptr;
      on_complete = nullptr;
    }
  };

  /**
   * One logical policy call. Its timers and its attempts' exchanges hold
   * it through CallRefs; at most two attempts are ever outstanding
   * (current + hedge).
   */
  struct PolicyCall {
    NodeId from;
    NodeId to;
    RpcOptions options;  // `method` is the caller's view (see RpcOptions)
    RpcCallPolicy policy;
    Handler handler;  // runs once per wire attempt
    PolicyCompletion on_complete;
    RpcOutcome outcome;
    bool completed = false;
    sim::EventId hedge_timer;

    struct Attempt {
      SimTime issued_at;
      sim::EventId timeout_timer;
      bool finished = false;  // failed, timed out, or abandoned
      bool is_hedge = false;
    };
    std::vector<Attempt> attempts;
    uint32_t outstanding = 0;

    void Recycle() {
      handler = nullptr;
      on_complete = nullptr;
    }
  };

 public:
  RpcSystem(sim::Simulator* sim, const NetworkModel* network, Rng rng);

  RpcSystem(const RpcSystem&) = delete;
  RpcSystem& operator=(const RpcSystem&) = delete;

  /**
   * Installs a fault injector (not owned; may be null to remove). With no
   * model, or a model that is not armed(), the call paths are bit-identical
   * to the fault-free implementation.
   */
  void set_fault_model(FaultModel* model) { fault_model_ = model; }
  const FaultModel* fault_model() const { return fault_model_; }

  /**
   * Issues an RPC from `from` to `to`. The handler executes at the server
   * after request transport; once it responds, the response is transported
   * back and `on_complete` fires at the caller.
   */
  void Call(const NodeId& from, const NodeId& to, const RpcOptions& options,
            Handler handler, Completion on_complete);

  /**
   * Convenience for fixed-cost servers: the handler is a pure delay of
   * `server_time`.
   */
  void CallFixed(const NodeId& from, const NodeId& to,
                 const RpcOptions& options, SimTime server_time,
                 Completion on_complete);

  /**
   * Issues a logical call governed by `policy`: per-attempt timeouts,
   * retries with exponential backoff, and an optional hedged second
   * request. The handler may run more than once (one execution per wire
   * attempt); the first successful attempt wins and any still-outstanding
   * attempt is cancelled (its timers removed, its late completion
   * discarded, its in-flight time accounted as wasted). `on_complete`
   * fires exactly once.
   */
  void CallWithPolicy(const NodeId& from, const NodeId& to,
                      const RpcOptions& options, const RpcCallPolicy& policy,
                      Handler handler, PolicyCompletion on_complete);

  /** CallWithPolicy with a fixed-delay server. */
  void CallFixedWithPolicy(const NodeId& from, const NodeId& to,
                           const RpcOptions& options,
                           const RpcCallPolicy& policy, SimTime server_time,
                           PolicyCompletion on_complete);

  /** Count of successful wire attempts completed so far. */
  uint64_t completed_calls() const { return completed_calls_; }
  /** Wire attempts that completed with an error status. */
  uint64_t failed_calls() const { return failed_calls_; }
  /** Retry attempts issued by CallWithPolicy (excludes hedges). */
  uint64_t retries_issued() const { return retries_issued_; }
  /** Hedged attempts issued. */
  uint64_t hedges_issued() const { return hedges_issued_; }
  /** Logical calls won by the hedged attempt. */
  uint64_t hedge_wins() const { return hedge_wins_; }
  /** Per-attempt timeouts that fired. */
  uint64_t timeouts_fired() const { return timeouts_fired_; }
  /** Attempts abandoned because another attempt won first. */
  uint64_t cancelled_attempts() const { return cancelled_attempts_; }
  /** Total in-flight seconds spent on failed or abandoned attempts. */
  double wasted_seconds() const { return wasted_seconds_; }

  /** Distribution of end-to-end times of successful attempts (seconds). */
  const LogHistogram& latency_histogram() const { return latency_hist_; }

  /**
   * Observed latency quantile as a SimTime — the production recipe for
   * picking RpcCallPolicy::hedge_delay ("hedge after p95").
   */
  SimTime LatencyQuantile(double q) const {
    return SimTime::FromSeconds(latency_hist_.Quantile(q));
  }

 private:
  /**
   * One wire exchange of a record whose handler and completion are set.
   * `silent_drop` is set by policy attempts that own a timeout: an
   * injected drop then delivers nothing (the timeout is the rescue).
   * Otherwise a drop completes with an error after the full round-trip
   * time so no caller can hang.
   */
  void StartExchange(const NodeId& from, const NodeId& to,
                     const RpcOptions& options, ExchangeRef exchange,
                     bool silent_drop);
  /** Request arrival: runs the handler at the server. */
  void Serve(const ExchangeRef& exchange);
  /** The handler's responder: sends the response back. */
  void Respond(const ExchangeRef& exchange);
  /** Completes the caller, `failed` on an injected drop or rejection. */
  void Deliver(const ExchangeRef& exchange, bool failed);

  void IssueAttempt(const CallRef& call, bool is_hedge);
  void OnAttemptResult(const CallRef& call, size_t index,
                       const RpcResult& result);
  void OnAttemptTimeout(const CallRef& call, size_t index);
  void MaybeRetryOrFail(const CallRef& call, const Status& failure);
  void CompleteCall(const CallRef& call, const Status& status,
                    const RpcResult* winner, size_t winner_index);

  /** Jitter draws come from the fault model's failure-path stream. */
  Rng& ResilienceRng();

  sim::Simulator* sim_;
  const NetworkModel* network_;
  Rng rng_;
  // Backoff-jitter stream used when no fault model is installed; never
  // touched on fault-free plain paths, so it cannot perturb goldens.
  Rng fallback_resilience_rng_;
  FaultModel* fault_model_ = nullptr;
  uint64_t completed_calls_ = 0;
  uint64_t failed_calls_ = 0;
  uint64_t retries_issued_ = 0;
  uint64_t hedges_issued_ = 0;
  uint64_t hedge_wins_ = 0;
  uint64_t timeouts_fired_ = 0;
  uint64_t cancelled_attempts_ = 0;
  double wasted_seconds_ = 0;
  LogHistogram latency_hist_;
  RecordPool<Exchange> exchanges_;
  RecordPool<PolicyCall> calls_;
};

}  // namespace hyperprof::net

#endif  // HYPERPROF_NET_RPC_H_
