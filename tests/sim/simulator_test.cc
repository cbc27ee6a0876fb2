#include "sim/simulator.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace hyperprof::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(SimTime::Micros(30), [&] { order.push_back(3); });
  simulator.Schedule(SimTime::Micros(10), [&] { order.push_back(1); });
  simulator.Schedule(SimTime::Micros(20), [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), SimTime::Micros(30));
}

TEST(SimulatorTest, SameTimeFiresInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulator.Schedule(SimTime::Micros(1), [&order, i] {
      order.push_back(i);
    });
  }
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(SimTime::Micros(1), [&] {
    ++fired;
    simulator.Schedule(SimTime::Micros(1), [&] { ++fired; });
  });
  uint64_t ran = simulator.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(simulator.Now(), SimTime::Micros(2));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simulator;
  simulator.Schedule(SimTime::Micros(5), [] {});
  simulator.Run();
  bool fired = false;
  simulator.Schedule(SimTime::Micros(-10), [&] { fired = true; });
  simulator.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(simulator.Now(), SimTime::Micros(5));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  EventId id = simulator.Schedule(SimTime::Micros(1), [&] { fired = true; });
  EXPECT_TRUE(simulator.Cancel(id));
  simulator.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Cancel(EventId{}));
  EXPECT_FALSE(simulator.Cancel(EventId{9999}));
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator simulator;
  EventId id = simulator.Schedule(SimTime::Micros(1), [] {});
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
  simulator.Run();
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  std::vector<int> fired;
  simulator.Schedule(SimTime::Micros(10), [&] { fired.push_back(1); });
  simulator.Schedule(SimTime::Micros(20), [&] { fired.push_back(2); });
  simulator.Schedule(SimTime::Micros(30), [&] { fired.push_back(3); });
  simulator.RunUntil(SimTime::Micros(20));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(simulator.Now(), SimTime::Micros(20));
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator simulator;
  simulator.RunUntil(SimTime::Millis(5));
  EXPECT_EQ(simulator.Now(), SimTime::Millis(5));
}

TEST(SimulatorTest, EventCountersTrack) {
  Simulator simulator;
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(SimTime::Micros(i), [] {});
  }
  EXPECT_EQ(simulator.pending_events(), 10u);
  simulator.Run();
  EXPECT_EQ(simulator.events_executed(), 10u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, PendingCountsOnlyLiveEvents) {
  Simulator simulator;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(simulator.Schedule(SimTime::Micros(i + 1), [] {}));
  }
  EXPECT_EQ(simulator.pending_events(), 6u);
  EXPECT_EQ(simulator.cancelled_events(), 0u);
  simulator.Cancel(ids[0]);
  simulator.Cancel(ids[3]);
  // Cancelled tombstones no longer inflate the live count.
  EXPECT_EQ(simulator.pending_events(), 4u);
  EXPECT_EQ(simulator.cancelled_events(), 2u);
  uint64_t ran = simulator.Run();
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(simulator.cancelled_events(), 0u);
}

TEST(SimulatorTest, CancelledIdStaysInvalidAfterSlotReuse) {
  Simulator simulator;
  bool old_fired = false;
  bool new_fired = false;
  EventId old_id =
      simulator.Schedule(SimTime::Micros(5), [&] { old_fired = true; });
  ASSERT_TRUE(simulator.Cancel(old_id));
  // The new event recycles the cancelled slot; the stale id must not be
  // able to cancel it.
  simulator.Schedule(SimTime::Micros(6), [&] { new_fired = true; });
  EXPECT_FALSE(simulator.Cancel(old_id));
  simulator.Run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(SimulatorTest, CancelFromInsideOwnCallbackReturnsFalse) {
  Simulator simulator;
  bool cancel_result = true;
  EventId id;
  id = simulator.Schedule(SimTime::Micros(1),
                          [&] { cancel_result = simulator.Cancel(id); });
  simulator.Run();
  EXPECT_FALSE(cancel_result);
}

TEST(SimulatorTest, MoveOnlyCallbacksAreSupported) {
  Simulator simulator;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  simulator.Schedule(SimTime::Micros(1),
                     [payload = std::move(payload), &seen] {
                       seen = *payload + 1;
                     });
  simulator.Run();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, LargeCapturesSurviveSlotRecycling) {
  // Captures past the inline buffer take the heap fallback; interleave
  // scheduling, cancelling, and firing to exercise slot churn.
  Simulator simulator;
  struct Big {
    char bytes[96];
  };
  Big big{};
  big.bytes[95] = 7;
  int total = 0;
  for (int round = 0; round < 50; ++round) {
    EventId doomed = simulator.Schedule(SimTime::Micros(round), [] {});
    simulator.Schedule(SimTime::Micros(round),
                       [big, &total] { total += big.bytes[95]; });
    simulator.Cancel(doomed);
  }
  simulator.Run();
  EXPECT_EQ(total, 50 * 7);
}

TEST(SimulatorTest, DrainedKernelRetainsHeapCapacityAcrossRuns) {
  Simulator simulator;
  simulator.Reserve(1024);
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 1000; ++i) {
      simulator.Schedule(SimTime::Micros(i), [] {});
    }
    simulator.Run();
    EXPECT_EQ(simulator.pending_events(), 0u);
  }
  EXPECT_EQ(simulator.events_executed(), 3000u);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator simulator;
  simulator.Schedule(SimTime::Micros(10), [] {});
  simulator.Run();
  SimTime fired_at;
  simulator.ScheduleAt(SimTime::Micros(3),
                       [&] { fired_at = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(fired_at, SimTime::Micros(10));
}

}  // namespace
}  // namespace hyperprof::sim
