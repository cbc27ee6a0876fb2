#ifndef HYPERPROF_SIM_SIMULATOR_H_
#define HYPERPROF_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/sim_time.h"

namespace hyperprof::sim {

/**
 * Opaque handle for cancelling a scheduled event. Encodes the event's
 * slot and generation; a default-constructed id is never valid.
 */
struct EventId {
  uint64_t seq = 0;
  bool valid() const { return seq != 0; }
};

/**
 * Deterministic discrete-event simulator.
 *
 * Events are callbacks ordered by (timestamp, insertion sequence), so two
 * events at the same instant fire in the order they were scheduled — the
 * property that makes whole-fleet runs reproducible. (A plan released
 * lazily keeps the sequence numbers it reserved up front; see
 * ReserveOrders.) The kernel is
 * single-threaded by design; parallelism in the modeled system is expressed
 * as interleaved events, not host threads. (Host-level parallelism runs
 * independent Simulator instances side by side — see
 * platforms::FleetSimulation.)
 *
 * Hot-path layout: the binary heap orders small POD entries (time, order,
 * slot, generation) while callbacks live in a recycled slot table. A slot's
 * generation bumps on cancel or fire, so cancellation is O(1) — stale heap
 * entries are recognized at pop time by a generation mismatch, with no hash
 * lookups anywhere on the path. Callbacks are InlineFunction with a 48-byte
 * small buffer, so typical continuations never touch the heap allocator.
 */
class Simulator {
 public:
  using Callback = InlineFunction<void(), 48>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /** Current simulated time. */
  SimTime Now() const { return now_; }

  /** Schedules `fn` to run `delay` after Now(). Negative delays clamp to 0. */
  EventId Schedule(SimTime delay, Callback fn);

  /** Schedules `fn` at absolute time `when` (clamped to Now()). */
  EventId ScheduleAt(SimTime when, Callback fn);

  /**
   * Reserves `count` consecutive tie-break orders and returns the first.
   * With ScheduleAtOrder, a plan of future events can enter the heap one
   * at a time and still pop exactly as if every event had been scheduled
   * at the reservation: each keeps the order it would have had, so it
   * fires before any event scheduled later at the same instant.
   */
  uint64_t ReserveOrders(uint64_t count);

  /** ScheduleAt at an `order` taken from ReserveOrders. */
  EventId ScheduleAtOrder(SimTime when, uint64_t order, Callback fn);

  /**
   * Cancels a pending event; returns true if it had not yet fired. O(1):
   * the callback is destroyed immediately and the slot's generation bumps,
   * leaving a stale heap entry that pop skips by generation mismatch.
   */
  bool Cancel(EventId id);

  /** Runs until the event queue drains. Returns the number of events run. */
  uint64_t Run();

  /**
   * Runs until the queue drains or the next event lies beyond `deadline`.
   * Events scheduled exactly at the deadline still run; on early stop the
   * clock is advanced to the deadline.
   */
  uint64_t RunUntil(SimTime deadline);

  /**
   * Pre-sizes the heap and slot table for an expected number of in-flight
   * events; both containers also retain capacity across drains.
   */
  void Reserve(size_t expected_events);

  /**
   * Timestamp of the earliest live event, or SimTime::Max() when the queue
   * is empty. Lazily prunes stale (cancelled) entries off the heap top, so
   * the answer is exact. Used by the epoch scheduler to skip idle windows.
   */
  SimTime next_event_time();

  /**
   * Bytes of kernel bookkeeping currently reserved (heap, slot table, free
   * list — capacities, not sizes). RSS-independent input to the fleet's
   * memory/worker accounting.
   */
  size_t memory_bytes() const;

  /** Total events executed so far. */
  uint64_t events_executed() const { return events_executed_; }

  /** Number of live (scheduled, not cancelled, not fired) events. */
  size_t pending_events() const { return live_events_; }

  /** Cancelled events whose stale heap entries have not been popped yet. */
  size_t cancelled_events() const { return stale_in_heap_; }

 private:
  /** POD heap entry; the callback lives in the slot table. */
  struct HeapEntry {
    SimTime when;
    uint64_t order;  // schedule-time tie-break for same-instant events
    uint32_t slot;
    uint32_t gen;
  };
  /** Min-heap order on (when, order) via std::push_heap's max-heap API. */
  struct After {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };
  struct Slot {
    Callback fn;
    uint32_t gen = 0;
  };

  /** Pops the heap top and returns it. */
  HeapEntry PopTop();
  /** Fires the event in `entry`'s slot (already popped, generation ok). */
  void Fire(const HeapEntry& entry);

  SimTime now_;
  uint64_t next_order_ = 1;
  uint64_t events_executed_ = 0;
  size_t live_events_ = 0;
  size_t stale_in_heap_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_SIMULATOR_H_
