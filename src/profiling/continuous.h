#ifndef HYPERPROF_PROFILING_CONTINUOUS_H_
#define HYPERPROF_PROFILING_CONTINUOUS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "profiling/tracer.h"

namespace hyperprof::profiling {

/**
 * The per-window aggregation axes of the continuous profiler: end-to-end
 * latency plus the three attributed-time kinds of the paper's breakdown.
 */
enum class WindowCategory : uint8_t {
  kLatency = 0,
  kCpu = 1,
  kIo = 2,
  kRemoteWork = 3,
  kNumCategories,
};

constexpr size_t kNumWindowCategories =
    static_cast<size_t>(WindowCategory::kNumCategories);

const char* WindowCategoryName(WindowCategory category);

/**
 * Configuration for the continuous profiler. Two profilers can merge iff
 * window, history_size, geometry, and budgets all match (hard-checked).
 *
 * Budgets are per-window totals in virtual time: if the summed category
 * time inside one window exceeds budget[category], the window is flagged
 * as an anomaly for that category. Zero means unlimited.
 */
struct ContinuousOptions {
  /** Window width in virtual time. */
  SimTime window = SimTime::Millis(250);
  /** Ring slots of rolling history (the PROFILE_HISTORY_SIZE knob). */
  size_t history_size = 128;
  /** Bucket layout of the per-category quantile sketches. */
  SketchGeometry geometry;
  /** Per-window, per-category virtual-time budgets; Zero = unlimited. */
  std::array<SimTime, kNumWindowCategories> budget = {};
  /** Bounded anomaly log capacity; overflow is counted, not stored. */
  size_t max_anomalies = 64;
  /**
   * Worker-shard mode: accumulate only, never evaluate budgets. A shard
   * sees a partial view of each window, so budget/anomaly evaluation is
   * deferred to the merged aggregator at the epoch/post-run barrier.
   */
  bool defer_evaluation = false;
};

/**
 * One rolling-history slot: the aggregate of every sampled query whose
 * finish time fell inside window `index` (absolute, virtual-time origin).
 *
 * All totals are integer nanoseconds — attributed seconds are converted
 * per query with llround before accumulation — so shard-merged windows
 * are bit-identical to fused single-kernel accumulation regardless of
 * merge order (double addition is not associative; int64 addition is).
 */
struct WindowSlot {
  int64_t index = -1;  // absolute window index; -1 = empty slot
  uint64_t queries = 0;
  std::array<int64_t, kNumWindowCategories> total_nanos = {};
  std::vector<LatencySketch> sketches;  // one per category, in seconds
  bool evaluated = false;

  bool empty() const { return index < 0; }
};

/** Cumulative per-category budget accounting across evaluated windows. */
struct BudgetStat {
  uint64_t windows_evaluated = 0;  // non-empty windows seen past the seal
  uint64_t overruns = 0;           // windows whose total blew the budget
  int64_t worst_total_nanos = 0;   // largest per-window total observed
  int64_t worst_window = -1;       // window index of that worst total
};

/** One flagged budget overrun. */
struct WindowAnomaly {
  int64_t window = -1;
  WindowCategory category = WindowCategory::kLatency;
  int64_t total_nanos = 0;
  int64_t budget_nanos = 0;
};

/**
 * Time-windowed streaming aggregation over the zero-alloc trace pipeline
 * — the continuous-profiling (GWP-style) service layer.
 *
 * A tracer with a continuous profiler attached feeds every sampled query
 * finish into Observe(), which buckets it by virtual finish time into a
 * ring of WindowSlots. When virtual time advances past a window boundary
 * the sealed window is evaluated against the per-category budgets and
 * overruns are flagged into a bounded anomaly log. Percentiles come from
 * mergeable LatencySketch histograms, so shards' windows combine at epoch
 * barriers (MergeFrom) without retaining samples, and the merged output —
 * totals, percentiles, budget stats, anomalies — is bit-identical to a
 * fused single-kernel accumulation.
 *
 * Everything is preallocated at construction; Observe/MergeFrom/Finalize
 * perform no steady-state heap allocation (pinned by tracer_memory_test).
 */
class ContinuousProfiler {
 public:
  explicit ContinuousProfiler(ContinuousOptions options = {});

  /** Folds one finished query into its window; seals older windows. */
  void Observe(SimTime end, SimTime latency, const AttributedTime& attributed);

  /**
   * Declares virtual time has advanced to `now`: every window ending at
   * or before it is sealed and (unless deferred) evaluated.
   */
  void AdvanceTo(SimTime now);

  /** Seals and evaluates every populated window. Idempotent. */
  void Finalize();

  /**
   * Absorbs a worker shard's windows by absolute window index. Options
   * must match (hard check in all build modes). Evaluation of the merged
   * windows happens at Finalize(), in window-index order — the same order
   * a fused profiler evaluates in, so budget stats and anomaly logs come
   * out identical.
   */
  void MergeFrom(const ContinuousProfiler& shard);

  /** Ring slot for absolute window `index`, or nullptr if aged out. */
  const WindowSlot* WindowAt(int64_t index) const;

  /** Raw ring (slots in arbitrary position; check WindowSlot::index). */
  const std::vector<WindowSlot>& ring() const { return ring_; }

  int64_t first_window() const { return first_window_; }
  int64_t last_window() const { return last_window_; }

  /** Populated windows currently held in the ring. */
  size_t WindowsInHistory() const;

  /**
   * Quantile of one category across every window in the rolling history
   * (merges the per-window sketches into preallocated scratch).
   */
  double RollingQuantile(WindowCategory category, double q) const;

  const BudgetStat& budget_stat(WindowCategory category) const {
    return budget_[static_cast<size_t>(category)];
  }
  const std::vector<WindowAnomaly>& anomalies() const { return anomalies_; }
  uint64_t anomalies_dropped() const { return anomalies_dropped_; }

  uint64_t observed_queries() const { return observed_queries_; }
  /**
   * Populated windows evicted from the ring before merge/inspection,
   * including shard windows a merge found older than the ring's occupant
   * of their slot.
   */
  uint64_t windows_evicted() const { return windows_evicted_; }
  /** Observations for a window already sealed (should stay zero). */
  uint64_t late_observations() const { return late_observations_; }

  const ContinuousOptions& options() const { return options_; }
  size_t memory_bytes() const;

 private:
  WindowSlot& SlotFor(int64_t index) { return ring_[Position(index)]; }
  size_t Position(int64_t index) const {
    return static_cast<size_t>(index) % ring_.size();
  }
  int64_t WindowIndexOf(SimTime t) const {
    return t.nanos() / options_.window.nanos();
  }
  /** Seals + evaluates every window with index < bound. */
  void SealBelow(int64_t bound);
  void EvaluateWindow(WindowSlot& slot);
  /** Claims the ring slot for `index`, evicting an older occupant. */
  WindowSlot& ClaimSlot(int64_t index);

  ContinuousOptions options_;
  std::vector<WindowSlot> ring_;
  int64_t first_window_ = -1;
  int64_t last_window_ = -1;
  int64_t seal_cursor_ = -1;  // next window index to seal/evaluate
  std::array<BudgetStat, kNumWindowCategories> budget_ = {};
  std::vector<WindowAnomaly> anomalies_;
  uint64_t anomalies_dropped_ = 0;
  uint64_t observed_queries_ = 0;
  uint64_t windows_evicted_ = 0;
  uint64_t late_observations_ = 0;
  mutable LatencySketch rolling_scratch_;
};

}  // namespace hyperprof::profiling

#endif  // HYPERPROF_PROFILING_CONTINUOUS_H_
