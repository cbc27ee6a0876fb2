#include "consensus/paxos.h"

#include <algorithm>
#include <cassert>

namespace hyperprof::consensus {

namespace {

uint64_t MakeBallot(uint64_t round, uint32_t proposer_id) {
  return (round << 16) | proposer_id;
}

uint64_t RoundOf(uint64_t ballot) { return ballot >> 16; }

}  // namespace

PaxosGroup::PaxosGroup(sim::Simulator* simulator, net::RpcSystem* rpc,
                       std::vector<net::NodeId> acceptor_nodes,
                       PaxosParams params, Rng rng)
    : simulator_(simulator),
      rpc_(rpc),
      acceptor_nodes_(std::move(acceptor_nodes)),
      params_(params),
      rng_(std::move(rng)) {
  assert(!acceptor_nodes_.empty());
  acceptors_.resize(acceptor_nodes_.size());
}

void PaxosGroup::Reset(const std::vector<net::NodeId>& acceptor_nodes,
                       PaxosParams params, Rng rng) {
  assert(!acceptor_nodes.empty());
  acceptor_nodes_ = acceptor_nodes;
  params_ = params;
  rng_ = std::move(rng);
  acceptors_.assign(acceptor_nodes_.size(), AcceptorState());
}

void PaxosGroup::Propose(const net::NodeId& proposer_node,
                         uint32_t proposer_id, std::string value,
                         ProposeCallback on_done) {
  assert(proposer_id < (1 << 16));
  RunRef run = runs_.Acquire();
  run->node = proposer_node;
  run->proposer_id = proposer_id;
  run->value = std::move(value);
  run->on_done = std::move(on_done);
  run->started = simulator_->Now();
  run->round = 1;
  run->attempt = 0;
  run->phase1_round_trips = 0;
  run->phase2_round_trips = 0;
  run->finished = false;
  StartAttempt(run);
}

void PaxosGroup::BeginRound(ProposerRun& run, uint64_t ballot) {
  run.ballot = ballot;
  run.replies = 0;
  run.grants = 0;
  run.max_promised_seen = 0;
  run.acceptor_replies.resize(acceptor_nodes_.size());
  for (AcceptorReply& reply : run.acceptor_replies) {
    reply.ok = false;
    reply.promised_ballot = 0;
    reply.accepted_ballot = 0;
    reply.accepted_value.clear();
    reply.has_accepted = false;
  }
}

void PaxosGroup::StartAttempt(const RunRef& run) {
  if (run->finished) return;
  ++run->attempt;
  if (run->attempt > params_.max_attempts) {
    run->finished = true;
    ProposeResult result;
    result.chosen = false;
    result.elapsed = simulator_->Now() - run->started;
    result.phase1_round_trips = run->phase1_round_trips;
    result.phase2_round_trips = run->phase2_round_trips;
    run->on_done(result);
    return;
  }
  ++run->phase1_round_trips;
  BeginRound(*run, MakeBallot(run->round, run->proposer_id));
  run->best_accepted_ballot = 0;
  run->best_accepted_value.clear();
  run->saw_accepted = false;

  for (size_t i = 0; i < acceptor_nodes_.size(); ++i) {
    net::RpcOptions options;
    options.method = "paxos.Prepare";
    options.request_bytes = params_.message_bytes;
    options.response_bytes = params_.message_bytes;
    if (params_.private_rpc_draws) options.rng = &rng_;
    rpc_->Call(
        run->node, acceptor_nodes_[i], options,
        [this, run, i](net::RpcSystem::Responder respond) {
          simulator_->Schedule(
              params_.acceptor_service_time,
              [this, run, i, respond = std::move(respond)]() {
                AcceptorState& acceptor = acceptors_[i];
                AcceptorReply& reply = run->acceptor_replies[i];
                if (run->ballot > acceptor.promised_ballot) {
                  acceptor.promised_ballot = run->ballot;
                  reply.ok = true;
                  reply.accepted_ballot = acceptor.accepted_ballot;
                  reply.accepted_value = acceptor.accepted_value;
                  reply.has_accepted = acceptor.has_accepted;
                } else {
                  reply.ok = false;
                  reply.promised_ballot = acceptor.promised_ballot;
                }
                respond();
              });
        },
        [this, run, i](const net::RpcResult&) { OnPrepareReply(run, i); });
  }
}

void PaxosGroup::OnPrepareReply(const RunRef& run, size_t acceptor) {
  ProposerRun& r = *run;
  const AcceptorReply& reply = r.acceptor_replies[acceptor];
  ++r.replies;
  if (reply.ok) {
    ++r.grants;
    if (reply.has_accepted && reply.accepted_ballot > r.best_accepted_ballot) {
      r.best_accepted_ballot = reply.accepted_ballot;
      r.best_accepted_value = reply.accepted_value;
      r.saw_accepted = true;
    }
  } else {
    r.max_promised_seen = std::max(r.max_promised_seen, reply.promised_ballot);
  }
  if (r.replies < acceptor_nodes_.size()) return;
  // All phase-1 replies in: proposer-side bookkeeping delay.
  simulator_->Schedule(params_.proposer_service_time, [this, run]() {
    if (run->finished) return;
    if (run->grants >= majority()) {
      const std::string& value =
          run->saw_accepted ? run->best_accepted_value : run->value;
      RunPhase2(run, run->ballot, value);
    } else {
      // Outpaced: jump past the highest promised round.
      run->round =
          std::max(run->round + 1, RoundOf(run->max_promised_seen) + 1);
      Retry(run);
    }
  });
}

void PaxosGroup::RunPhase2(const RunRef& run, uint64_t ballot,
                           const std::string& value) {
  ++run->phase2_round_trips;
  run->proposed = value;
  BeginRound(*run, ballot);

  for (size_t i = 0; i < acceptor_nodes_.size(); ++i) {
    net::RpcOptions options;
    options.method = "paxos.Accept";
    options.request_bytes = params_.message_bytes;
    options.response_bytes = 128;
    if (params_.private_rpc_draws) options.rng = &rng_;
    rpc_->Call(
        run->node, acceptor_nodes_[i], options,
        [this, run, i](net::RpcSystem::Responder respond) {
          simulator_->Schedule(
              params_.acceptor_service_time,
              [this, run, i, respond = std::move(respond)]() {
                AcceptorState& acceptor = acceptors_[i];
                AcceptorReply& reply = run->acceptor_replies[i];
                if (run->ballot >= acceptor.promised_ballot) {
                  acceptor.promised_ballot = run->ballot;
                  acceptor.accepted_ballot = run->ballot;
                  acceptor.accepted_value = run->proposed;
                  acceptor.has_accepted = true;
                  reply.ok = true;
                } else {
                  reply.ok = false;
                  reply.promised_ballot = acceptor.promised_ballot;
                }
                respond();
              });
        },
        [this, run, i](const net::RpcResult&) { OnAcceptReply(run, i); });
  }
}

void PaxosGroup::OnAcceptReply(const RunRef& run, size_t acceptor) {
  ProposerRun& r = *run;
  const AcceptorReply& reply = r.acceptor_replies[acceptor];
  ++r.replies;
  if (reply.ok) {
    ++r.grants;
  } else {
    r.max_promised_seen = std::max(r.max_promised_seen, reply.promised_ballot);
  }
  if (r.replies < acceptor_nodes_.size()) return;
  simulator_->Schedule(params_.proposer_service_time, [this, run]() {
    if (run->finished) return;
    if (run->grants >= majority()) {
      run->finished = true;
      ProposeResult result;
      result.chosen = true;
      result.value = run->proposed;
      result.phase1_round_trips = run->phase1_round_trips;
      result.phase2_round_trips = run->phase2_round_trips;
      result.elapsed = simulator_->Now() - run->started;
      run->on_done(result);
    } else {
      run->round =
          std::max(run->round + 1, RoundOf(run->max_promised_seen) + 1);
      Retry(run);
    }
  });
}

void PaxosGroup::Retry(const RunRef& run) {
  // Exponential backoff with jitter breaks proposer duels.
  double backoff_s = params_.retry_backoff.ToSeconds() *
                     static_cast<double>(1ULL << std::min(run->attempt, 10)) *
                     (0.5 + rng_.NextDouble());
  simulator_->Schedule(SimTime::FromSeconds(backoff_s),
                       [this, run]() { StartAttempt(run); });
}

std::optional<std::string> PaxosGroup::ChosenValue() const {
  // A value is chosen iff a majority of acceptors accepted the same
  // ballot.
  for (size_t i = 0; i < acceptors_.size(); ++i) {
    if (!acceptors_[i].has_accepted) continue;
    size_t count = 0;
    for (const AcceptorState& other : acceptors_) {
      if (other.has_accepted &&
          other.accepted_ballot == acceptors_[i].accepted_ballot) {
        ++count;
      }
    }
    if (count >= majority()) return acceptors_[i].accepted_value;
  }
  return std::nullopt;
}

}  // namespace hyperprof::consensus
