#ifndef HYPERPROF_SIM_BARRIER_H_
#define HYPERPROF_SIM_BARRIER_H_

#include <functional>

#include "sim/simulator.h"

namespace hyperprof::sim {

/**
 * Fan-out / fan-in helper: starts `count` parallel branches and invokes
 * `on_all_done` when every branch has reported completion.
 *
 * Used for replicated writes (consensus quorums), parallel shard scans, and
 * shuffle fan-in. The returned callable is the per-branch completion token;
 * it must be invoked exactly `count` times in total.
 *
 * The completion callback is a move-only Simulator::Callback held behind a
 * single shared allocation; the returned token captures only the shared_ptr,
 * so it fits std::function's inline buffer and copying a token is a
 * refcount bump, never a heap allocation.
 */
std::function<void()> Barrier(size_t count, Simulator::Callback on_all_done);

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_BARRIER_H_
