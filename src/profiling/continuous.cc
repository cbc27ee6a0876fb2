#include "profiling/continuous.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hyperprof::profiling {

const char* WindowCategoryName(WindowCategory category) {
  switch (category) {
    case WindowCategory::kLatency:
      return "latency";
    case WindowCategory::kCpu:
      return "cpu";
    case WindowCategory::kIo:
      return "io";
    case WindowCategory::kRemoteWork:
      return "remote_work";
    default:
      return "?";
  }
}

namespace {

// Same contract philosophy as LatencySketch::Merge: combining windows that
// were bucketed under different options silently corrupts every downstream
// percentile and budget verdict, so mismatches die in all build modes.
[[noreturn]] void MergeContractMismatch(const char* what) {
  std::fprintf(stderr, "ContinuousProfiler::MergeFrom: %s mismatch\n", what);
  std::abort();
}

void CheckMergeContract(const ContinuousOptions& a, const ContinuousOptions& b) {
  if (a.window != b.window) MergeContractMismatch("window width");
  if (a.history_size != b.history_size) MergeContractMismatch("history size");
  if (!(a.geometry == b.geometry)) MergeContractMismatch("sketch geometry");
  if (a.budget != b.budget) MergeContractMismatch("budget");
}

}  // namespace

ContinuousProfiler::ContinuousProfiler(ContinuousOptions options)
    : options_(options), rolling_scratch_(options.geometry) {
  assert(options_.window > SimTime::Zero());
  assert(options_.history_size > 0);
  ring_.resize(options_.history_size);
  for (WindowSlot& slot : ring_) {
    slot.sketches.reserve(kNumWindowCategories);
    for (size_t c = 0; c < kNumWindowCategories; ++c) {
      slot.sketches.emplace_back(options_.geometry);
    }
  }
  anomalies_.reserve(options_.max_anomalies);
}

void ContinuousProfiler::Observe(SimTime end, SimTime latency,
                                 const AttributedTime& attributed) {
  int64_t index = WindowIndexOf(end);
  if (first_window_ < 0) {
    first_window_ = index;
    seal_cursor_ = index;
  }
  if (index < seal_cursor_) {
    // The window was already sealed (and possibly evaluated); folding the
    // sample in now would make fused and shard-merged outputs diverge, so
    // it is counted and dropped instead. Finish times arrive nondecreasing
    // from the tracer, so this stays zero in practice.
    ++late_observations_;
    return;
  }
  SealBelow(index);
  if (index > last_window_) last_window_ = index;
  WindowSlot& slot = ClaimSlot(index);

  ++slot.queries;
  ++observed_queries_;
  // Integer-nanosecond accumulation: llround per query, then exact int64
  // sums, so any shard split merges to bit-identical window totals.
  std::array<int64_t, kNumWindowCategories> nanos = {
      latency.nanos(),
      std::llround(attributed.cpu * 1e9),
      std::llround(attributed.io * 1e9),
      std::llround(attributed.remote * 1e9),
  };
  std::array<double, kNumWindowCategories> seconds = {
      latency.ToSeconds(), attributed.cpu, attributed.io, attributed.remote};
  for (size_t c = 0; c < kNumWindowCategories; ++c) {
    slot.total_nanos[c] += nanos[c];
    slot.sketches[c].Add(seconds[c]);
  }
}

void ContinuousProfiler::AdvanceTo(SimTime now) {
  if (first_window_ < 0) return;  // nothing observed yet; nothing to seal
  SealBelow(WindowIndexOf(now));
}

void ContinuousProfiler::Finalize() {
  if (first_window_ < 0) return;
  if (seal_cursor_ < 0) seal_cursor_ = first_window_;  // merge-built profiler
  SealBelow(last_window_ + 1);
}

void ContinuousProfiler::SealBelow(int64_t bound) {
  if (seal_cursor_ < 0) return;
  if (!options_.defer_evaluation) {
    int64_t stop = std::min(bound, last_window_ + 1);
    for (int64_t i = seal_cursor_; i < stop; ++i) {
      WindowSlot& slot = ring_[Position(i)];
      if (slot.index == i && !slot.evaluated) EvaluateWindow(slot);
    }
  }
  seal_cursor_ = std::max(seal_cursor_, bound);
}

void ContinuousProfiler::EvaluateWindow(WindowSlot& slot) {
  slot.evaluated = true;
  if (slot.queries == 0) return;
  for (size_t c = 0; c < kNumWindowCategories; ++c) {
    BudgetStat& stat = budget_[c];
    ++stat.windows_evaluated;
    int64_t total = slot.total_nanos[c];
    if (stat.worst_window < 0 || total > stat.worst_total_nanos) {
      stat.worst_total_nanos = total;
      stat.worst_window = slot.index;
    }
    int64_t budget = options_.budget[c].nanos();
    if (budget > 0 && total > budget) {
      ++stat.overruns;
      if (anomalies_.size() < options_.max_anomalies) {
        anomalies_.push_back(WindowAnomaly{
            slot.index, static_cast<WindowCategory>(c), total, budget});
      } else {
        ++anomalies_dropped_;
      }
    }
  }
}

WindowSlot& ContinuousProfiler::ClaimSlot(int64_t index) {
  WindowSlot& slot = SlotFor(index);
  if (slot.index == index) return slot;
  if (!slot.empty()) ++windows_evicted_;
  slot.index = index;
  slot.queries = 0;
  slot.total_nanos = {};
  for (LatencySketch& sketch : slot.sketches) sketch.Clear();
  slot.evaluated = false;
  return slot;
}

void ContinuousProfiler::MergeFrom(const ContinuousProfiler& shard) {
  CheckMergeContract(options_, shard.options_);
  observed_queries_ += shard.observed_queries_;
  windows_evicted_ += shard.windows_evicted_;
  late_observations_ += shard.late_observations_;
  // Budget stats and anomalies are NOT copied: shards defer evaluation
  // (partial windows must not be judged), and Finalize() re-derives them
  // from the merged totals in window-index order — the same order the
  // fused streaming path evaluates in.
  for (const WindowSlot& src : shard.ring_) {
    if (src.empty()) continue;
    if (first_window_ < 0 || src.index < first_window_) {
      first_window_ = src.index;
    }
    if (src.index > last_window_) last_window_ = src.index;
    WindowSlot& dst = SlotFor(src.index);
    if (dst.index != src.index) {
      if (!dst.empty() && dst.index > src.index) {
        // The ring already holds a newer window in this slot. One ring
        // seeing both windows in time order would have evicted this one
        // when the newer one claimed the slot, so count it the same way
        // (shard rings that each span less than the history can together
        // span more).
        ++windows_evicted_;
        continue;
      }
      ClaimSlot(src.index);
    }
    dst.queries += src.queries;
    for (size_t c = 0; c < kNumWindowCategories; ++c) {
      dst.total_nanos[c] += src.total_nanos[c];
      dst.sketches[c].Merge(src.sketches[c]);
    }
  }
}

const WindowSlot* ContinuousProfiler::WindowAt(int64_t index) const {
  if (index < 0) return nullptr;
  const WindowSlot& slot = ring_[Position(index)];
  return slot.index == index ? &slot : nullptr;
}

size_t ContinuousProfiler::WindowsInHistory() const {
  size_t n = 0;
  for (const WindowSlot& slot : ring_) n += slot.empty() ? 0 : 1;
  return n;
}

double ContinuousProfiler::RollingQuantile(WindowCategory category,
                                           double q) const {
  rolling_scratch_.Clear();
  for (const WindowSlot& slot : ring_) {
    if (slot.empty()) continue;
    rolling_scratch_.Merge(slot.sketches[static_cast<size_t>(category)]);
  }
  return rolling_scratch_.Quantile(q);
}

size_t ContinuousProfiler::memory_bytes() const {
  size_t bytes = sizeof(*this);
  bytes += ring_.capacity() * sizeof(WindowSlot);
  for (const WindowSlot& slot : ring_) {
    for (const LatencySketch& sketch : slot.sketches) {
      bytes += sketch.memory_bytes();
    }
  }
  bytes += anomalies_.capacity() * sizeof(WindowAnomaly);
  bytes += rolling_scratch_.memory_bytes();
  return bytes;
}

}  // namespace hyperprof::profiling
