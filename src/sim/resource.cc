#include "sim/resource.h"

#include <cassert>
#include <utility>

namespace hyperprof::sim {

Resource::Resource(Simulator* sim, std::string name, uint32_t capacity)
    : sim_(sim),
      name_(std::move(name)),
      capacity_(capacity),
      last_change_(sim->Now()),
      created_at_(sim->Now()) {
  assert(capacity >= 1);
}

void Resource::AccumulateBusy() {
  SimTime now = sim_->Now();
  busy_unit_seconds_ +=
      static_cast<double>(in_use_) * (now - last_change_).ToSeconds();
  last_change_ = now;
}

void Resource::Acquire(Simulator::Callback on_granted) {
  if (in_use_ < capacity_) {
    AccumulateBusy();
    ++in_use_;
    wait_stats_.Add(0.0);
    on_granted();
    return;
  }
  waiters_.push_back(Waiter{sim_->Now(), std::move(on_granted)});
}

void Resource::Serve(SimTime service_time, Simulator::Callback on_done) {
  Acquire([this, service_time, on_done = std::move(on_done)]() mutable {
    sim_->Schedule(service_time,
                   [this, on_done = std::move(on_done)]() mutable {
                     Release();
                     on_done();
                   });
  });
}

void Resource::Release() {
  assert(in_use_ > 0);
  if (!waiters_.empty()) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    wait_stats_.Add((sim_->Now() - w.enqueued).ToSeconds());
    // Unit transfers directly to the waiter; in_use_ unchanged.
    w.on_granted();
    return;
  }
  AccumulateBusy();
  --in_use_;
}

double Resource::Utilization() const {
  double elapsed = (sim_->Now() - created_at_).ToSeconds();
  if (elapsed <= 0) return 0.0;
  double busy = busy_unit_seconds_ +
                static_cast<double>(in_use_) *
                    (sim_->Now() - last_change_).ToSeconds();
  return busy / (elapsed * static_cast<double>(capacity_));
}

}  // namespace hyperprof::sim
