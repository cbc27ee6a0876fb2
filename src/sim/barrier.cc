#include "sim/barrier.h"

#include <cassert>
#include <memory>

namespace hyperprof::sim {

namespace {

struct BarrierState {
  size_t remaining;
  Simulator::Callback on_all_done;
};

}  // namespace

std::function<void()> Barrier(size_t count, Simulator::Callback on_all_done) {
  assert(count > 0);
  auto state = std::make_shared<BarrierState>();
  state->remaining = count;
  state->on_all_done = std::move(on_all_done);
  return [state]() {
    assert(state->remaining > 0);
    if (--state->remaining == 0) state->on_all_done();
  };
}

}  // namespace hyperprof::sim
