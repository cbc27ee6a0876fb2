#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace hyperprof::sim {

namespace {

// EventId layout: (slot + 1) in the high 32 bits (so every real id is
// nonzero), the slot's generation in the low 32 bits.
constexpr uint64_t EncodeId(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(slot) + 1) << 32 | gen;
}

}  // namespace

EventId Simulator::Schedule(SimTime delay, Callback fn) {
  if (delay < SimTime::Zero()) delay = SimTime::Zero();
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& cell = slots_[slot];
  cell.fn = std::move(fn);
  heap_.push_back(HeapEntry{when, next_order_++, slot, cell.gen});
  std::push_heap(heap_.begin(), heap_.end(), After{});
  ++live_events_;
  return EventId{EncodeId(slot, cell.gen)};
}

bool Simulator::Cancel(EventId id) {
  uint64_t slot_plus_1 = id.seq >> 32;
  if (slot_plus_1 == 0 || slot_plus_1 > slots_.size()) return false;
  uint32_t slot = static_cast<uint32_t>(slot_plus_1 - 1);
  uint32_t gen = static_cast<uint32_t>(id.seq);
  Slot& cell = slots_[slot];
  if (cell.gen != gen) return false;  // already fired, cancelled, or reused
  cell.fn = Callback();               // release the payload immediately
  ++cell.gen;                         // stale-out the heap entry
  free_slots_.push_back(slot);
  --live_events_;
  ++stale_in_heap_;
  return true;
}

Simulator::HeapEntry Simulator::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  HeapEntry entry = heap_.back();
  heap_.pop_back();
  return entry;
}

void Simulator::Fire(const HeapEntry& entry) {
  Slot& cell = slots_[entry.slot];
  now_ = entry.when;
  Callback fn = std::move(cell.fn);
  ++cell.gen;
  // Recycle the slot before running: a callback that reschedules (the
  // common timer/arrival pattern) lands back in the still-warm cell.
  free_slots_.push_back(entry.slot);
  --live_events_;
  fn();
  ++events_executed_;
}

uint64_t Simulator::Run() {
  uint64_t ran = 0;
  while (!heap_.empty()) {
    HeapEntry entry = PopTop();
    if (slots_[entry.slot].gen != entry.gen) {
      --stale_in_heap_;
      continue;
    }
    Fire(entry);
    ++ran;
  }
  return ran;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t ran = 0;
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (slots_[top.slot].gen != top.gen) {
      PopTop();
      --stale_in_heap_;
      continue;
    }
    if (top.when > deadline) break;
    Fire(PopTop());
    ++ran;
  }
  if (now_ < deadline) now_ = deadline;
  return ran;
}

SimTime Simulator::next_event_time() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (slots_[top.slot].gen == top.gen) return top.when;
    PopTop();
    --stale_in_heap_;
  }
  return SimTime::Max();
}

size_t Simulator::memory_bytes() const {
  return heap_.capacity() * sizeof(HeapEntry) +
         slots_.capacity() * sizeof(Slot) +
         free_slots_.capacity() * sizeof(uint32_t);
}

void Simulator::Reserve(size_t expected_events) {
  heap_.reserve(expected_events);
  slots_.reserve(expected_events);
  free_slots_.reserve(expected_events);
}

}  // namespace hyperprof::sim
