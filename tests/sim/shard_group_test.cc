// ShardGroup unit suite: canonical delivery order, quiesce with in-flight
// envelopes, the late-delivery tripwire, and the zero-steady-state-
// allocation guarantee of the exchange path.
//
// This binary replaces the global allocator with a counting shim (the
// tracer_memory_test pattern); it must stay its own test executable so
// the override can't leak into other suites.
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard_group.h"
#include "sim/simulator.h"

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace hyperprof::sim {
namespace {

constexpr SimTime kWindow = SimTime::Micros(500);

/** One delivery observation: (destination clock, lane, seq). */
struct LogEntry {
  int64_t at_nanos;
  uint64_t lane;
  uint64_t seq;
  bool operator==(const LogEntry& other) const {
    return at_nanos == other.at_nanos && lane == other.lane &&
           seq == other.seq;
  }
};

/**
 * A ShardGroup over `n` kernels plus per-destination delivery logs. Each
 * log is only ever appended by its own kernel's runner, so the harness is
 * safe under parallel runs without locks.
 */
struct Harness {
  explicit Harness(size_t n) : logs(n) {
    kernels.reserve(n);
    owned.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<Simulator>());
      kernels.push_back(owned.back().get());
    }
    group = std::make_unique<ShardGroup>(kernels, kWindow);
    for (auto& log : logs) log.reserve(4096);
  }

  std::vector<std::unique_ptr<Simulator>> owned;
  std::vector<Simulator*> kernels;
  std::unique_ptr<ShardGroup> group;
  std::vector<std::vector<LogEntry>> logs;
};

/**
 * Posts one hop of a round-robin chain from `from`: the payload logs at
 * the destination and, while hops remain, posts the next hop. Captures
 * stay under 48 bytes, so chain traffic exercises the inline path.
 */
void PostHop(Harness* h, uint32_t from, uint64_t lane, uint64_t seq,
             uint32_t remaining) {
  uint32_t to = (from + 1) % static_cast<uint32_t>(h->kernels.size());
  SimTime deliver = h->kernels[from]->Now() + kWindow;
  h->group->Post(from, to, deliver, lane, seq,
                 [h, to, lane, seq, remaining] {
                   h->logs[to].push_back(
                       {h->kernels[to]->Now().nanos(), lane, seq});
                   if (remaining > 0) PostHop(h, to, lane, seq + 1,
                                              remaining - 1);
                 });
}

/** Same chain, but every payload drags a 96-byte pad into the arena. */
void PostFatHop(Harness* h, uint32_t from, uint64_t lane, uint64_t seq,
                uint32_t remaining) {
  uint32_t to = (from + 1) % static_cast<uint32_t>(h->kernels.size());
  SimTime deliver = h->kernels[from]->Now() + kWindow;
  std::array<unsigned char, 96> pad{};
  pad[0] = static_cast<unsigned char>(seq);
  h->group->Post(from, to, deliver, lane, seq,
                 [h, to, lane, seq, remaining, pad] {
                   h->logs[to].push_back(
                       {h->kernels[to]->Now().nanos(), lane + pad[0] - pad[0],
                        seq});
                   if (remaining > 0) PostFatHop(h, to, lane, seq + 1,
                                                 remaining - 1);
                 });
}

/**
 * Runs the group to quiesce: one Advance(Max) call when `step` is Max,
 * otherwise Advance in `step` increments (pausing mid-epoch).
 */
void RunToQuiesce(ShardGroup& group, bool parallel, SimTime step) {
  if (step == SimTime::Max()) {
    EXPECT_FALSE(group.Advance(SimTime::Max(), parallel));
    return;
  }
  SimTime until = SimTime::Zero();
  while (group.Advance(until += step, parallel)) {
  }
}

/** A step that never lines up with the window grid. */
constexpr SimTime kStep = SimTime::Micros(170);

/** Kicks `lanes` chains of `hops` messages each from kernel `from`. */
void StartChains(Harness* h, uint32_t from, uint64_t lanes, uint32_t hops) {
  for (uint64_t lane = 0; lane < lanes; ++lane) {
    h->kernels[from]->Schedule(
        SimTime::Micros(static_cast<int64_t>(lane) * 40),
        [h, from, lane, hops] { PostHop(h, from, lane, 0, hops); });
  }
}

TEST(ShardGroupTest, AllocationCounterIsLive) {
  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  auto* probe = new std::vector<int>(128);
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  delete probe;
  EXPECT_GT(after, before);
}

// Two sources each post a burst to kernel 0 at the same deliver instant
// with lanes in descending order (adversarial: the staging appends are
// out of canonical order within each run, and the runs interleave), plus
// a second wave one window later. Serial and parallel runs, one-shot and
// stepped, must deliver in the identical canonical (deliver, lane, seq)
// order.
TEST(ShardGroupTest, CanonicalDeliveryUnderAdversarialInterleavings) {
  auto run = [](bool parallel, SimTime step) {
    Harness h(3);
    for (uint32_t src : {1u, 2u}) {
      h.kernels[src]->Schedule(SimTime::Zero(), [&h, src] {
        SimTime wave1 = h.kernels[src]->Now() + kWindow;
        SimTime wave2 = wave1 + kWindow;
        // src 1 posts odd lanes, src 2 even lanes, both descending.
        for (uint64_t lane : {5, 3, 1}) {
          uint64_t id = lane - (src == 2 ? 1 : 0);
          h.group->Post(src, 0, wave1, id, 0, [&h, id] {
            h.logs[0].push_back({h.kernels[0]->Now().nanos(), id, 0});
          });
          h.group->Post(src, 0, wave2, id, 1, [&h, id] {
            h.logs[0].push_back({h.kernels[0]->Now().nanos(), id, 1});
          });
        }
      });
    }
    RunToQuiesce(*h.group, parallel, step);
    EXPECT_EQ(h.group->late_deliveries(), 0u);
    EXPECT_EQ(h.group->undelivered(), 0u);
    return h.logs[0];
  };
  std::vector<LogEntry> serial = run(false, SimTime::Max());
  ASSERT_EQ(serial.size(), 12u);
  EXPECT_EQ(serial, run(true, SimTime::Max()));
  EXPECT_EQ(serial, run(false, kStep));
  EXPECT_EQ(serial, run(true, kStep));
  // Canonical order: both waves ascend by lane regardless of post order.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(serial[i].lane, i) << "wave 1 position " << i;
    EXPECT_EQ(serial[6 + i].lane, i) << "wave 2 position " << i;
  }
}

// Deep ping-pong chains leave envelopes in flight at every barrier; once
// Advance returns false the group must account for all of them and the
// kernels must be fully drained — serial and parallel, one-shot and
// stepped alike, with identical delivery logs and epoch counts.
TEST(ShardGroupTest, QuiesceWithInFlightEnvelopes) {
  std::vector<std::vector<LogEntry>> reference_logs;
  uint64_t reference_epochs = 0;
  for (SimTime step : {SimTime::Max(), kStep}) {
    for (bool parallel : {false, true}) {
      Harness h(3);
      StartChains(&h, 0, /*lanes=*/5, /*hops=*/15);
      RunToQuiesce(*h.group, parallel, step);
      const bool stepped = step != SimTime::Max();
      // 5 lanes x 16 messages (hop 0..15) each.
      EXPECT_EQ(h.group->messages_posted(), 80u)
          << "parallel=" << parallel << " stepped=" << stepped;
      EXPECT_EQ(h.group->messages_delivered(), 80u);
      EXPECT_EQ(h.group->undelivered(), 0u);
      EXPECT_EQ(h.group->late_deliveries(), 0u);
      size_t logged = 0;
      for (const auto& log : h.logs) logged += log.size();
      EXPECT_EQ(logged, 80u);
      for (Simulator* kernel : h.kernels) {
        EXPECT_EQ(kernel->pending_events(), 0u);
        EXPECT_EQ(kernel->cancelled_events(), 0u);
      }
      if (reference_logs.empty()) {
        reference_logs = h.logs;
        reference_epochs = h.group->epochs();
      } else {
        EXPECT_EQ(h.logs, reference_logs)
            << "parallel=" << parallel << " stepped=" << stepped;
        EXPECT_EQ(h.group->epochs(), reference_epochs);
      }
    }
  }
}

TEST(ShardGroupTest, UndeliveredCountsBufferedEnvelopes) {
  Harness h(2);
  h.group->Post(1, 0, kWindow, 7, 0, [&h] {
    h.logs[0].push_back({h.kernels[0]->Now().nanos(), 7, 0});
  });
  EXPECT_EQ(h.group->messages_posted(), 1u);
  EXPECT_EQ(h.group->undelivered(), 1u);
  h.group->Advance(SimTime::Max(), /*parallel=*/false);
  EXPECT_EQ(h.group->undelivered(), 0u);
  ASSERT_EQ(h.logs[0].size(), 1u);
}

// A post that breaks the one-window lookahead contract (its `deliver`
// lies behind the destination's clock) is counted exactly once by the
// late-delivery tripwire, yet still runs — clamped to the destination's
// Now() — and leaves nothing buffered.
TEST(ShardGroupTest, LateDeliveryIsCountedAndClampedToNow) {
  Harness h(2);
  // Move both clocks well past the envelope's delivery time first.
  h.kernels[1]->Schedule(kWindow * 10, [] {});
  EXPECT_FALSE(h.group->Advance(SimTime::Max(), /*parallel=*/false));
  const SimTime clock = h.kernels[1]->Now();
  ASSERT_GT(clock, kWindow);
  EXPECT_EQ(h.group->late_deliveries(), 0u);

  h.group->Post(0, 1, kWindow, 7, 0, [&h] {
    h.logs[1].push_back({h.kernels[1]->Now().nanos(), 7, 0});
  });
  EXPECT_FALSE(h.group->Advance(SimTime::Max(), /*parallel=*/false));
  EXPECT_EQ(h.group->late_deliveries(), 1u);
  EXPECT_EQ(h.group->undelivered(), 0u);
  ASSERT_EQ(h.logs[1].size(), 1u);
  EXPECT_EQ(h.logs[1][0].at_nanos, clock.nanos());
}

// Oversized payloads land in per-source arena cells that recycle once the
// payload has run: repeating the identical workload on a warmed-up group
// must add no exchange allocations and no heap allocations at all.
TEST(ShardGroupTest, SteadyStateExchangeAllocatesNothing) {
  Harness h(2);
  auto workload = [&h] {
    for (uint64_t lane = 0; lane < 4; ++lane) {
      h.kernels[0]->Schedule(
          SimTime::Micros(static_cast<int64_t>(lane) * 40),
          [harness = &h, lane] { PostFatHop(harness, 0, lane, 0, 9); });
    }
  };
  // Warm-up: grows mailboxes, arena cells, kernel slot tables, heaps.
  // Serial throughout: runner threads would allocate.
  workload();
  h.group->Advance(SimTime::Max(), /*parallel=*/false);
  EXPECT_EQ(h.group->messages_delivered(), 40u);
  uint64_t warmed_allocs = h.group->exchange_allocs();
  EXPECT_GT(warmed_allocs, 0u);  // the fat payloads did hit the arena
  size_t warmed_log = h.logs[1].size();

  for (auto& log : h.logs) log.clear();
  uint64_t heap_before = g_allocation_count.load(std::memory_order_relaxed);
  workload();
  h.group->Advance(SimTime::Max(), /*parallel=*/false);
  uint64_t heap_after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(heap_after - heap_before, 0u);
  EXPECT_EQ(h.group->exchange_allocs(), warmed_allocs);
  EXPECT_EQ(h.logs[1].size(), warmed_log);
  EXPECT_EQ(h.group->undelivered(), 0u);
  EXPECT_EQ(h.group->late_deliveries(), 0u);
}

// The inline path is alloc-free even on the very first run: small-capture
// chains touch only containers, which retain capacity across runs.
TEST(ShardGroupTest, InlinePayloadsSkipTheArena) {
  Harness h(2);
  StartChains(&h, 0, /*lanes=*/2, /*hops=*/5);
  h.group->Advance(SimTime::Max(), /*parallel=*/false);
  uint64_t after_first = h.group->exchange_allocs();
  StartChains(&h, 0, /*lanes=*/2, /*hops=*/5);
  h.group->Advance(SimTime::Max(), /*parallel=*/false);
  // No arena cells and no further container growth on the second run.
  EXPECT_EQ(h.group->exchange_allocs(), after_first);
  EXPECT_EQ(h.group->messages_delivered(), 24u);
}

}  // namespace
}  // namespace hyperprof::sim
