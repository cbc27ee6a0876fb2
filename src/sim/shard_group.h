#ifndef HYPERPROF_SIM_SHARD_GROUP_H_
#define HYPERPROF_SIM_SHARD_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "sim/simulator.h"

namespace hyperprof::sim {

/**
 * One cross-shard message. `deliver` is an absolute timestamp on the
 * destination kernel's clock; `(lane, seq)` is the canonical ordering key:
 * `lane` identifies the logical source stream (the fleet layer uses the
 * global query index, which does not depend on how queries are partitioned
 * over shards) and `seq` counts messages within that lane. The destination
 * is implicit in which mailbox holds the envelope.
 */
struct ShardEnvelope {
  SimTime deliver;
  uint64_t lane = 0;
  uint64_t seq = 0;
  Simulator::Callback payload;
};

/**
 * Conservative discrete-event scheduler over a group of Simulator
 * kernels, all run by the calling thread.
 *
 * The group advances all kernels in lock-step epochs of length `window`,
 * the minimum cross-shard delivery latency. Within an epoch every kernel
 * runs independently; messages to other kernels are appended to
 * per-(source, destination) mailboxes. When the next epoch opens, each
 * destination merges its inbound runs into its kernel in the canonical
 * (deliver, lane, seq) order, before any kernel runs.
 *
 * The epoch rule: each epoch starts at s, the earliest pending kernel
 * event or buffered envelope, and runs every kernel to s + window
 * (RunUntil is deadline-inclusive). An envelope posted at local time
 * t <= s + window carries deliver = t + window >= s + window, which is
 * exactly where every kernel's clock sits when the next epoch opens —
 * so insertion never clamps and no message arrives in a kernel's past.
 *
 * Determinism: epoch boundaries snap to that global minimum, and
 * same-instant deliveries are tie-broken by the kernel's insertion
 * order, which the canonical merge makes independent of shard count.
 * Any shard count — including one — produces bit-identical simulations
 * and epoch counts.
 *
 * Envelopes carry their payloads inline in a 48-byte InlineFunction and
 * mailboxes keep their capacity, so steady-state cross-shard traffic
 * performs zero heap allocations (DESIGN.md §14).
 */
class ShardGroup {
 public:
  /**
   * The group borrows the kernels (callers keep ownership; they must
   * outlive the group). `window` must be positive.
   */
  ShardGroup(std::vector<Simulator*> kernels, SimTime window);

  /**
   * Buffers a message from kernel `from` to kernel `to`; `deliver` must be
   * at least `window` past `from`'s clock so the next epoch can honor it.
   *
   * The payload is stored inline in the envelope, so a warmed-up exchange
   * path allocates nothing (see exchange_allocs()). A capture larger than
   * the 48-byte buffer does not compile: keep bulky state in a record the
   * payload points to.
   */
  template <typename F>
  void Post(uint32_t from, uint32_t to, SimTime deliver, uint64_t lane,
            uint64_t seq, F&& payload) {
    static_assert(Simulator::Callback::fits_inline<std::decay_t<F>>(),
                  "ShardGroup payloads must fit the envelope inline");
    std::vector<ShardEnvelope>& box = mailboxes_[from * kernels_.size() + to];
    if (box.size() == box.capacity()) ++exchange_allocs_;  // growth
    box.push_back(ShardEnvelope{deliver, lane, seq,
                                Simulator::Callback(std::forward<F>(payload))});
    ++posted_;
  }

  /**
   * The group's only epoch loop: advances every kernel to virtual time
   * `until` and pauses. Advance(SimTime::Max()) runs until every kernel
   * quiesces and all mailboxes drain, then drains stale cancelled heap
   * entries so kernels report a clean quiesce. Returns true while work
   * remains (paused at `until`), false once the group has fully quiesced.
   *
   * Pausing is invisible: an advance-in-K-steps run executes the exact
   * same events in the exact same order as one Advance(Max) call,
   * delivers mailboxes at the exact same epoch openings, and ends with an
   * identical epoch count (pinned by the simtest fuzz digest's
   * "determinism-replay" comparison of a stepped and a one-shot run).
   * The key is that a pause never becomes a barrier: when `until` falls
   * inside a planned epoch, the group runs each kernel to `until` and
   * keeps the epoch *open* — the epoch plan is not recomputed and
   * envelopes posted since it opened stay buffered — so the next Advance
   * resumes the same epoch and closes it at its original deadline. Epoch
   * plans therefore see exactly the kernel states a one-shot run would
   * see.
   */
  bool Advance(SimTime until);

  SimTime window() const { return window_; }
  /** Epochs completed. Layout-invariant (see the class doc). */
  uint64_t epochs() const { return epochs_; }
  uint64_t messages_posted() const { return posted_; }
  uint64_t messages_delivered() const { return delivered_; }
  /** Envelopes still buffered; zero once Advance() returns false. */
  size_t undelivered() const {
    return static_cast<size_t>(posted_ - delivered_);
  }
  /**
   * Heap allocations attributable to the exchange path (mailbox growth).
   * A warmed-up steady state adds zero. Layout-dependent — never fold
   * into digests.
   */
  uint64_t exchange_allocs() const { return exchange_allocs_; }
  /**
   * Envelopes that arrived with deliver < the destination clock (each is
   * still scheduled, clamped to the destination's Now()). Always zero
   * while every Post keeps its contract of delivering at least one window
   * ahead; the shard-exchange invariant checks it.
   */
  uint64_t late_deliveries() const { return late_; }

 private:
  /**
   * Computes the next epoch deadline from kernel next-event times and
   * mailbox heads. Returns false on global quiesce.
   */
  bool PlanEpoch(SimTime& deadline);
  /**
   * Merges kernel `to`'s inbound runs in canonical (deliver, lane, seq)
   * order straight into the kernel, then clears them.
   */
  void Deliver(uint32_t to);
  /** Runs every kernel to `deadline`. */
  void RunKernels(SimTime deadline);

  std::vector<Simulator*> kernels_;
  SimTime window_;
  // Mailboxes, indexed [from * n + to]. Sources append during an epoch;
  // each destination merges and clears its boxes when the next epoch
  // opens. Appends arrive in nondecreasing `deliver` order per box
  // (deliver = t + window with t monotone), so each box is a nearly
  // sorted run.
  std::vector<std::vector<ShardEnvelope>> mailboxes_;
  std::vector<size_t> cursors_;  // per-source read positions of one merge
  uint64_t posted_ = 0;
  uint64_t delivered_ = 0;
  uint64_t late_ = 0;
  uint64_t exchange_allocs_ = 0;
  uint64_t epochs_ = 0;
  // Pause state: the in-progress epoch's planned deadline. An open epoch
  // has had its mailboxes delivered and (possibly partially) run; it
  // completes — and only then is a new epoch planned — once Advance is
  // called with `until` >= the stored deadline.
  bool epoch_open_ = false;
  SimTime epoch_deadline_;
};

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_SHARD_GROUP_H_
