#ifndef HYPERPROF_CONSENSUS_PAXOS_H_
#define HYPERPROF_CONSENSUS_PAXOS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/inline_function.h"
#include "common/record_pool.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace hyperprof::consensus {

/**
 * A single-decree Paxos deployment over the simulated RPC fabric — the
 * consensus substrate behind the Spanner engine's commit path (the
 * "Consensus" core-compute category and the consensus remote-work spans
 * of the paper's characterization).
 *
 * The implementation is the classic two-phase protocol:
 *   Phase 1 (prepare/promise): a proposer claims a ballot; acceptors
 *     promise not to accept lower ballots and report any accepted value.
 *   Phase 2 (accept/accepted): the proposer proposes the highest-ballot
 *     accepted value it saw (or its own), and the value is chosen once a
 *     majority accepts.
 *
 * Safety holds under arbitrary message delay/reordering (exercised by the
 * jittered network model) because the simulation delivers every message
 * eventually and acceptors follow the promise rules.
 */

/** Durable state of one acceptor. */
struct AcceptorState {
  uint64_t promised_ballot = 0;
  uint64_t accepted_ballot = 0;
  std::string accepted_value;
  bool has_accepted = false;
};

/** Outcome of one proposer run. */
struct ProposeResult {
  bool chosen = false;          // a value was chosen by a majority
  std::string value;            // the chosen value
  uint64_t ballot = 0;          // winning ballot
  int phase1_round_trips = 0;   // prepare rounds performed
  int phase2_round_trips = 0;   // accept rounds performed
  SimTime elapsed;              // proposer-observed latency
};

/** Timing/behaviour knobs of the deployment. */
struct PaxosParams {
  // Per-message acceptor processing time (log write + state update).
  SimTime acceptor_service_time = SimTime::Micros(120);
  // Proposer-side compute per round (marshalling, quorum bookkeeping).
  SimTime proposer_service_time = SimTime::Micros(60);
  // Retry backoff base after a rejected ballot; doubles per attempt with
  // jitter to break proposer duels.
  SimTime retry_backoff = SimTime::Micros(300);
  int max_attempts = 32;
  uint64_t message_bytes = 512;
  // Route the prepare/accept RPC network/fault draws through the group's
  // private rng rather than the RpcSystem's stream. Shard engines set
  // this so co-resident queries cannot perturb each other's draws.
  bool private_rpc_draws = false;
};

/**
 * A Paxos group: N acceptors on distinct hosts plus any number of
 * proposers. Owned state lives here; proposers run as asynchronous
 * operations on the simulator.
 */
class PaxosGroup {
 public:
  using ProposeCallback = InlineFunction<void(const ProposeResult&)>;

  /**
   * @param acceptor_nodes Host placement of each acceptor (odd count
   *        recommended). Majority = floor(n/2) + 1.
   */
  PaxosGroup(sim::Simulator* simulator, net::RpcSystem* rpc,
             std::vector<net::NodeId> acceptor_nodes, PaxosParams params,
             Rng rng);

  PaxosGroup(const PaxosGroup&) = delete;
  PaxosGroup& operator=(const PaxosGroup&) = delete;

  /**
   * Runs a proposer from `proposer_node` trying to get `value` chosen.
   * Multiple concurrent proposals are allowed (that is the point);
   * every callback eventually fires with the *same* chosen value.
   *
   * @param proposer_id Distinguishes proposers; ballots are constructed
   *        as (round << 16) | proposer_id so they never collide.
   */
  void Propose(const net::NodeId& proposer_node, uint32_t proposer_id,
               std::string value, ProposeCallback on_done);

  size_t acceptor_count() const { return acceptor_nodes_.size(); }
  size_t majority() const { return acceptor_nodes_.size() / 2 + 1; }

  /**
   * Starts a fresh deployment on `acceptor_nodes`: acceptor state,
   * parameters and stream are replaced as if the group were newly
   * constructed, and its storage is kept. Every earlier proposal must
   * have completed.
   */
  void Reset(const std::vector<net::NodeId>& acceptor_nodes,
             PaxosParams params, Rng rng);

  /** The value a majority has accepted at the current instant, if any. */
  std::optional<std::string> ChosenValue() const;

  const AcceptorState& acceptor_state(size_t index) const {
    return acceptors_[index];
  }

 private:
  /** One acceptor's answer to the round in flight. */
  struct AcceptorReply {
    bool ok = false;
    uint64_t promised_ballot = 0;  // on reject: what blocked us
    uint64_t accepted_ballot = 0;  // on promise: prior acceptance, if any
    std::string accepted_value;
    bool has_accepted = false;
  };

  /**
   * One proposer. It runs one round (prepare or accept) at a time, so the
   * round's progress and replies live here too.
   */
  struct ProposerRun {
    net::NodeId node;
    uint32_t proposer_id = 0;
    std::string value;
    ProposeCallback on_done;
    SimTime started;
    uint64_t round = 1;
    int attempt = 0;
    int phase1_round_trips = 0;
    int phase2_round_trips = 0;
    bool finished = false;
    // The round in flight.
    uint64_t ballot = 0;
    size_t replies = 0;
    size_t grants = 0;  // promises (phase 1) or accepts (phase 2)
    uint64_t max_promised_seen = 0;
    uint64_t best_accepted_ballot = 0;  // phase 1
    std::string best_accepted_value;
    bool saw_accepted = false;
    std::string proposed;  // phase 2's value
    std::vector<AcceptorReply> acceptor_replies;  // [acceptor]

    void Recycle() { on_done = nullptr; }
  };
  using RunRef = RecordPool<ProposerRun>::Ref;

  /** Starts a round: resets its progress and replies. */
  void BeginRound(ProposerRun& run, uint64_t ballot);
  void StartAttempt(const RunRef& run);
  void OnPrepareReply(const RunRef& run, size_t acceptor);
  void RunPhase2(const RunRef& run, uint64_t ballot,
                 const std::string& value);
  void OnAcceptReply(const RunRef& run, size_t acceptor);
  void Retry(const RunRef& run);

  sim::Simulator* simulator_;
  net::RpcSystem* rpc_;
  std::vector<net::NodeId> acceptor_nodes_;
  PaxosParams params_;
  Rng rng_;
  std::vector<AcceptorState> acceptors_;
  RecordPool<ProposerRun> runs_;
};

}  // namespace hyperprof::consensus

#endif  // HYPERPROF_CONSENSUS_PAXOS_H_
