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
 * Conservative parallel-discrete-event scheduler over a group of
 * Simulator kernels.
 *
 * The group advances all kernels in lock-step epochs of length `window`,
 * the minimum cross-shard delivery latency. Within an epoch every kernel
 * runs independently; messages to other kernels are appended to
 * per-(source, destination) mailboxes. At the epoch barrier the staged
 * mailboxes flip over to the destinations, and each destination merges its
 * inbound runs in the canonical (deliver, lane, seq) order at the start of
 * the next epoch — while the other destinations merge their own traffic in
 * parallel.
 *
 * The epoch rule: each epoch starts at s, the earliest pending kernel
 * event or buffered envelope, and runs every kernel to s + window
 * (RunUntil is deadline-inclusive). An envelope posted at local time
 * t <= s + window carries deliver = t + window >= s + window, which is
 * exactly where every kernel's clock sits at the barrier — so insertion
 * never clamps and no message arrives in a kernel's past.
 *
 * Determinism: epoch boundaries snap to that global minimum, and
 * same-instant deliveries are tie-broken by the kernel's insertion
 * order, which the canonical merge makes independent of shard count and
 * thread schedule. Any shard count — including one — produces
 * bit-identical simulations and epoch counts, with or without runner
 * threads.
 *
 * Hot-path design (DESIGN.md §14): a parallel Advance gives each kernel
 * a persistent runner parked on an atomic epoch-ticket barrier (one
 * barrier per epoch, not per-epoch thread-pool enqueues), and envelopes
 * carry their payloads inline in a 48-byte InlineFunction, so
 * steady-state cross-shard traffic performs zero heap allocations.
 */
class ShardGroup {
 public:
  /**
   * The group borrows the kernels (callers keep ownership; they must
   * outlive the group). `window` must be positive.
   */
  ShardGroup(std::vector<Simulator*> kernels, SimTime window);

  /**
   * Buffers a message from kernel `from` to kernel `to`. Must be called
   * from `from`'s runner (or between epochs); `deliver` must be at least
   * `window` past `from`'s clock so the barrier can honor it.
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
    Source& src = sources_[from];
    std::vector<ShardEnvelope>& box = staging_[from * kernels_.size() + to];
    if (box.size() == box.capacity()) ++src.allocs;  // container growth
    box.push_back(ShardEnvelope{deliver, lane, seq,
                                Simulator::Callback(std::forward<F>(payload))});
    ++src.posted;
  }

  /**
   * The group's only epoch loop: advances every kernel to virtual time
   * `until` and pauses. Advance(SimTime::Max()) runs until every kernel
   * quiesces and all mailboxes drain, then drains stale cancelled heap
   * entries so kernels report a clean quiesce. Returns true while work
   * remains (paused at `until`), false once the group has fully quiesced.
   *
   * Pausing is invisible: an advance-in-K-steps run executes the exact
   * same events in the exact same order as one Advance(Max) call, flips
   * mailboxes at the exact same barriers, and ends with an identical
   * epoch count (pinned by the simtest fuzz digest's "determinism-replay"
   * comparison of a stepped and a one-shot run).
   * The key is that a pause never becomes a barrier: when `until` falls
   * inside a planned epoch, the group runs each kernel to `until` and
   * keeps the epoch *open* — mailboxes are not flipped and the epoch plan
   * is not recomputed — so the next Advance resumes the same epoch and
   * closes it at its original deadline. Epoch plans therefore see exactly
   * the kernel states a one-shot run would see.
   *
   * With `parallel` and more than one kernel, one persistent runner
   * thread per kernel beyond the caller's (which runs the last kernel)
   * executes each "run every kernel to T" step; the runners start inside
   * this call and are joined before it returns or rethrows a kernel's
   * exception. Either way the results are bit-identical.
   */
  bool Advance(SimTime until, bool parallel);

  SimTime window() const { return window_; }
  /** Epochs completed. Schedule- and layout-invariant (see the class doc). */
  uint64_t epochs() const { return epochs_; }
  uint64_t messages_posted() const;
  uint64_t messages_delivered() const;
  /**
   * Envelopes still buffered; zero once Advance() returns false.
   * Maintained from per-source posted and per-destination delivered
   * counters (updated by exactly one thread each), so reading it costs
   * O(shards).
   */
  size_t undelivered() const;
  /**
   * Heap allocations attributable to the exchange path (mailbox growth).
   * A warmed-up steady state adds zero. Layout-dependent — never fold
   * into digests.
   */
  uint64_t exchange_allocs() const;
  /**
   * Envelopes that arrived with deliver < the destination clock (each is
   * still scheduled, clamped to the destination's Now()). Always zero
   * while every Post keeps its contract of delivering at least one window
   * ahead; the shard-exchange invariant checks it.
   */
  uint64_t late_deliveries() const;

 private:
  /** Per-source counters; only the source's runner writes mid-epoch. */
  struct alignas(64) Source {
    uint64_t posted = 0;
    uint64_t allocs = 0;
  };

  /** Per-destination counters; only the destination's runner writes. */
  struct alignas(64) Dest {
    uint64_t delivered = 0;
    uint64_t late = 0;
  };

  /**
   * Computes the next epoch deadline from kernel next-event times and
   * staged run heads. Returns false on global quiesce. Coordinator only,
   * runners parked.
   */
  bool PlanEpoch(SimTime& deadline);
  /** Flips non-empty staged mailboxes to inboxes. Runners parked. */
  void SwapMailboxes();
  /**
   * Merges kernel `to`'s inbound runs in canonical (deliver, lane, seq)
   * order straight into the kernel, then clears them. Runs on `to`'s
   * runner at the start of each epoch.
   */
  void DeliverInbox(uint32_t to);
  /** Delivers, then advances kernel `k` to `deadline`. */
  void RunKernel(uint32_t k, SimTime deadline);
  /** Runner threads of one parallel Advance call (shard_group.cc). */
  class Runners;

  std::vector<Simulator*> kernels_;
  SimTime window_;
  // Double-buffered mailboxes, indexed [from * n + to]. Sources append to
  // staging_ during an epoch (single writer, no lock); the coordinator
  // flips non-empty boxes into inbox_ at the barrier; destinations merge
  // and clear inbox_ during the next epoch. Appends arrive in
  // nondecreasing `deliver` order per box (deliver = t + window with t
  // monotone), so each box is a nearly sorted run.
  std::vector<std::vector<ShardEnvelope>> staging_;
  std::vector<std::vector<ShardEnvelope>> inbox_;
  std::vector<Source> sources_;
  std::vector<Dest> dests_;
  std::vector<std::vector<size_t>> merge_scratch_;  // per-dest run cursors
  uint64_t epochs_ = 0;
  // Pause state: the in-progress epoch's planned deadline. An open epoch
  // has had its mailboxes flipped and (possibly partially) run; it
  // completes — and only then is a new epoch planned — once Advance is
  // called with `until` >= the stored deadline.
  bool epoch_open_ = false;
  SimTime epoch_deadline_;
};

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_SHARD_GROUP_H_
