#include "net/rpc.h"

#include <cmath>
#include <utility>

namespace hyperprof::net {

RpcSystem::RpcSystem(sim::Simulator* sim, const NetworkModel* network,
                     Rng rng)
    : sim_(sim),
      network_(network),
      rng_(std::move(rng)),
      // Fixed-seed fallback stream: only consulted on failure paths when no
      // fault model is installed, so its seeding cannot perturb fault-free
      // runs. Tests that exercise pure-timeout policies rely on it being
      // deterministic, not on it being related to the network stream.
      fallback_resilience_rng_(0x5bd1e995u) {}

Rng& RpcSystem::ResilienceRng() {
  return fault_model_ != nullptr ? fault_model_->rng()
                                 : fallback_resilience_rng_;
}

void RpcSystem::StartExchange(const NodeId& from, const NodeId& to,
                              const RpcOptions& options, ExchangeRef exchange,
                              bool silent_drop) {
  RpcResult& result = exchange->result;
  result = RpcResult();
  result.issued_at = sim_->Now();

  // Caller-supplied stream (sharded engines) or the system stream.
  Rng& draw_rng = options.rng != nullptr ? *options.rng : rng_;
  SimTime request_time =
      network_->MessageTime(from, to, options.request_bytes, draw_rng);
  SimTime response_time =
      network_->MessageTime(to, from, options.response_bytes, draw_rng);
  result.network_time = request_time + response_time;

  // Fault draws happen strictly after the network draws, from the fault
  // model's private stream (or the caller's, when supplied): a disarmed
  // model leaves every schedule and every stream position identical to
  // the fault-free build.
  FaultDecision fault;
  if (fault_model_ != nullptr && fault_model_->armed()) {
    fault = options.rng != nullptr
                ? fault_model_->Decide(options.method, to, sim_->Now(),
                                       *options.rng)
                : fault_model_->Decide(options.method, to, sim_->Now());
  }
  switch (fault.kind) {
    case FaultDecision::Kind::kDrop:
      // The request vanishes in the fabric. A policy attempt with its own
      // timeout hears nothing (the timeout is the rescue); a plain call
      // gets the loss surfaced as an error after the round trip it would
      // have taken, so no caller can hang forever.
      if (silent_drop) return;
      result.status = Status(fault.code, "rpc request dropped");
      break;
    case FaultDecision::Kind::kError:
      // The server's front door rejects after request transport; the
      // (small) error response rides the drawn response time.
      result.status = Status(fault.code, "rpc rejected by server");
      break;
    case FaultDecision::Kind::kSlow:
      // Degraded server: the response is delayed. Kept out of
      // network_time so the slowdown shows up as server-side tail, which
      // is what hedging is designed to cut.
      response_time += fault.slow_extra;
      break;
    case FaultDecision::Kind::kNone:
      break;
  }
  if (!result.ok()) {
    // The handler never runs.
    exchange->handler = nullptr;
    sim_->Schedule(request_time + response_time,
                   [this, exchange = std::move(exchange)]() {
                     Deliver(exchange, /*failed=*/true);
                   });
    return;
  }
  exchange->response_time = response_time;
  sim_->Schedule(request_time, [this, exchange = std::move(exchange)]() {
    Serve(exchange);
  });
}

void RpcSystem::Serve(const ExchangeRef& exchange) {
  exchange->handler_start = sim_->Now();
  exchange->handler(Responder(this, exchange));
  exchange->handler = nullptr;
}

void RpcSystem::Respond(const ExchangeRef& exchange) {
  exchange->result.server_time = sim_->Now() - exchange->handler_start;
  sim_->Schedule(exchange->response_time, [this, exchange]() {
    Deliver(exchange, /*failed=*/false);
  });
}

void RpcSystem::Deliver(const ExchangeRef& exchange, bool failed) {
  RpcResult& result = exchange->result;
  result.completed_at = sim_->Now();
  if (failed) {
    ++failed_calls_;
  } else {
    ++completed_calls_;
    latency_hist_.Add(result.Total().ToSeconds());
  }
  if (exchange->on_complete) exchange->on_complete(result);
}

void RpcSystem::Call(const NodeId& from, const NodeId& to,
                     const RpcOptions& options, Handler handler,
                     Completion on_complete) {
  ExchangeRef exchange = exchanges_.Acquire();
  exchange->handler = std::move(handler);
  exchange->on_complete = std::move(on_complete);
  StartExchange(from, to, options, std::move(exchange),
                /*silent_drop=*/false);
}

void RpcSystem::CallFixed(const NodeId& from, const NodeId& to,
                          const RpcOptions& options, SimTime server_time,
                          Completion on_complete) {
  Call(
      from, to, options,
      [this, server_time](Responder respond) {
        sim_->Schedule(server_time, std::move(respond));
      },
      std::move(on_complete));
}

void RpcSystem::CallWithPolicy(const NodeId& from, const NodeId& to,
                               const RpcOptions& options,
                               const RpcCallPolicy& policy, Handler handler,
                               PolicyCompletion on_complete) {
  if (policy.Plain()) {
    // Single attempt, no timers, no extra draws: the wrapping below is
    // synchronous bookkeeping, so this path schedules exactly the events
    // the legacy Call would.
    Call(from, to, options, std::move(handler),
         [on_complete = std::move(on_complete)](
             const RpcResult& result) mutable {
           RpcOutcome outcome;
           outcome.status = result.status;
           outcome.result = result;
           outcome.attempts = 1;
           outcome.failures = result.ok() ? 0 : 1;
           if (on_complete) on_complete(outcome);
         });
    return;
  }

  CallRef call = calls_.Acquire();
  call->from = from;
  call->to = to;
  call->options = options;
  call->policy = policy;
  call->handler = std::move(handler);
  call->on_complete = std::move(on_complete);
  call->outcome = RpcOutcome();
  call->completed = false;
  call->hedge_timer = sim::EventId{};
  call->attempts.clear();
  call->outstanding = 0;
  IssueAttempt(call, /*is_hedge=*/false);
  if (policy.hedge_delay > SimTime::Zero()) {
    call->hedge_timer =
        sim_->Schedule(policy.hedge_delay, [this, call]() {
          call->hedge_timer = sim::EventId{};
          if (call->completed || call->outcome.hedged) return;
          // Hedge only while the primary is still in flight; if it
          // already failed we are in backoff and a retry is coming.
          if (call->outstanding == 0) return;
          IssueAttempt(call, /*is_hedge=*/true);
        });
  }
}

void RpcSystem::CallFixedWithPolicy(const NodeId& from, const NodeId& to,
                                    const RpcOptions& options,
                                    const RpcCallPolicy& policy,
                                    SimTime server_time,
                                    PolicyCompletion on_complete) {
  CallWithPolicy(
      from, to, options, policy,
      [this, server_time](Responder respond) {
        sim_->Schedule(server_time, std::move(respond));
      },
      std::move(on_complete));
}

void RpcSystem::IssueAttempt(const CallRef& call, bool is_hedge) {
  size_t index = call->attempts.size();
  PolicyCall::Attempt attempt;
  attempt.issued_at = sim_->Now();
  attempt.is_hedge = is_hedge;
  ++call->outcome.attempts;
  ++call->outstanding;
  if (is_hedge) {
    call->outcome.hedged = true;
    ++hedges_issued_;
  } else if (index > 0) {
    ++retries_issued_;
  }
  bool silent_drop = call->policy.timeout > SimTime::Zero();
  if (call->policy.timeout > SimTime::Zero()) {
    attempt.timeout_timer =
        sim_->Schedule(call->policy.timeout, [this, call, index]() {
          OnAttemptTimeout(call, index);
        });
  }
  call->attempts.push_back(attempt);
  // The exchange runs the call's own handler: one handler per logical
  // call, however many attempts go out.
  ExchangeRef exchange = exchanges_.Acquire();
  exchange->handler = [call](Responder respond) {
    call->handler(std::move(respond));
  };
  exchange->on_complete = [this, call, index](const RpcResult& result) {
    OnAttemptResult(call, index, result);
  };
  StartExchange(call->from, call->to, call->options, std::move(exchange),
                silent_drop);
}

void RpcSystem::OnAttemptResult(const CallRef& call, size_t index,
                                const RpcResult& result) {
  PolicyCall::Attempt& attempt = call->attempts[index];
  // Late delivery from an abandoned or timed-out attempt: the call already
  // moved on; discarding here is what "cancelling the loser" means at the
  // flow level (the bytes still crossed the simulated wire).
  if (call->completed || attempt.finished) return;
  if (result.ok()) {
    CompleteCall(call, Status::Ok(), &result, index);
    return;
  }
  attempt.finished = true;
  --call->outstanding;
  if (attempt.timeout_timer.valid()) {
    sim_->Cancel(attempt.timeout_timer);
    attempt.timeout_timer = sim::EventId{};
  }
  ++call->outcome.failures;
  call->outcome.wasted_time += sim_->Now() - attempt.issued_at;
  MaybeRetryOrFail(call, result.status);
}

void RpcSystem::OnAttemptTimeout(const CallRef& call, size_t index) {
  PolicyCall::Attempt& attempt = call->attempts[index];
  attempt.timeout_timer = sim::EventId{};
  if (call->completed || attempt.finished) return;
  ++timeouts_fired_;
  attempt.finished = true;
  --call->outstanding;
  ++call->outcome.failures;
  call->outcome.wasted_time += call->policy.timeout;
  MaybeRetryOrFail(call,
                   Status::DeadlineExceeded("rpc attempt timed out"));
}

void RpcSystem::MaybeRetryOrFail(const CallRef& call,
                                 const Status& failure) {
  // Another attempt (primary or hedge) is still racing: let it decide.
  if (call->outstanding > 0) return;
  if (call->outcome.attempts < call->policy.max_attempts) {
    // Exponential backoff keyed on failures so far, with optional
    // symmetric jitter drawn from the failure-path stream (never from the
    // network stream — see the RNG contract in DESIGN.md §10).
    double backoff_s =
        call->policy.backoff_base.ToSeconds() *
        std::pow(call->policy.backoff_multiplier,
                 static_cast<double>(call->outcome.failures - 1));
    if (call->policy.backoff_jitter > 0) {
      double u = ResilienceRng().NextDouble();
      backoff_s *= 1.0 + call->policy.backoff_jitter * (2.0 * u - 1.0);
    }
    sim_->Schedule(SimTime::FromSeconds(backoff_s), [this, call]() {
      if (call->completed) return;
      IssueAttempt(call, /*is_hedge=*/false);
    });
    return;
  }
  CompleteCall(call, failure, nullptr, 0);
}

void RpcSystem::CompleteCall(const CallRef& call, const Status& status,
                             const RpcResult* winner, size_t winner_index) {
  call->completed = true;
  if (call->hedge_timer.valid()) {
    sim_->Cancel(call->hedge_timer);
    call->hedge_timer = sim::EventId{};
  }
  if (winner != nullptr) {
    PolicyCall::Attempt& attempt = call->attempts[winner_index];
    attempt.finished = true;
    --call->outstanding;
    if (attempt.timeout_timer.valid()) {
      sim_->Cancel(attempt.timeout_timer);
      attempt.timeout_timer = sim::EventId{};
    }
    if (attempt.is_hedge) {
      call->outcome.hedge_won = true;
      ++hedge_wins_;
    }
    call->outcome.result = *winner;
  }
  // Cancel every still-outstanding loser: its timeout timer is removed
  // from the event queue and its in-flight time so far is wasted work.
  for (PolicyCall::Attempt& other : call->attempts) {
    if (other.finished) continue;
    other.finished = true;
    --call->outstanding;
    if (other.timeout_timer.valid()) {
      sim_->Cancel(other.timeout_timer);
      other.timeout_timer = sim::EventId{};
    }
    call->outcome.wasted_time += sim_->Now() - other.issued_at;
    ++cancelled_attempts_;
  }
  call->outcome.status = status;
  wasted_seconds_ += call->outcome.wasted_time.ToSeconds();
  if (call->on_complete) {
    // Move the completion out so what it captures is released now, even
    // if a stale wire event still holds the call.
    PolicyCompletion done = std::move(call->on_complete);
    call->on_complete = nullptr;
    done(call->outcome);
  }
}

}  // namespace hyperprof::net
