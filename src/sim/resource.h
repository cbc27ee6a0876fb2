#ifndef HYPERPROF_SIM_RESOURCE_H_
#define HYPERPROF_SIM_RESOURCE_H_

#include <cstdint>
#include <deque>
#include <string>

#include "common/sim_time.h"
#include "common/stats.h"
#include "sim/simulator.h"

namespace hyperprof::sim {

/**
 * A counting resource with FIFO admission (k-server queue).
 *
 * Models CPU cores on a worker, disk spindles, or accelerator ports: up to
 * `capacity` holders at once, excess requests wait in arrival order.
 * Queueing delay and utilization are tracked for reporting.
 */
class Resource {
 public:
  /**
   * @param sim The owning simulator; must outlive the resource.
   * @param name Diagnostic name used in reports.
   * @param capacity Maximum concurrent holders (>= 1).
   */
  Resource(Simulator* sim, std::string name, uint32_t capacity);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /**
   * Requests one unit. `on_granted` fires (possibly immediately, inline)
   * once a unit is available. The holder must call Release() exactly once.
   */
  void Acquire(Simulator::Callback on_granted);

  /**
   * Convenience: acquires a unit, holds it for `service_time`, then
   * releases and invokes `on_done`. This is the common "serve a request"
   * pattern.
   */
  void Serve(SimTime service_time, Simulator::Callback on_done);

  /** Returns one unit; grants the oldest waiter, if any. */
  void Release();

  uint32_t capacity() const { return capacity_; }
  uint32_t in_use() const { return in_use_; }
  size_t queue_length() const { return waiters_.size(); }

  /** Distribution of time spent waiting for admission (seconds). */
  const RunningStat& wait_stats() const { return wait_stats_; }

  /** Integral of busy units over time, divided by capacity*elapsed. */
  double Utilization() const;

  const std::string& name() const { return name_; }

 private:
  struct Waiter {
    SimTime enqueued;
    Simulator::Callback on_granted;
  };

  void AccumulateBusy();

  Simulator* sim_;
  std::string name_;
  uint32_t capacity_;
  uint32_t in_use_ = 0;
  std::deque<Waiter> waiters_;
  RunningStat wait_stats_;
  // Busy-time integral bookkeeping for Utilization().
  SimTime last_change_;
  double busy_unit_seconds_ = 0.0;
  SimTime created_at_;
};

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_RESOURCE_H_
