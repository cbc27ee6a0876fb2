#ifndef HYPERPROF_TESTING_INVARIANTS_H_
#define HYPERPROF_TESTING_INVARIANTS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "platforms/fleet.h"
#include "profiling/continuous.h"
#include "profiling/tracer.h"

namespace hyperprof::testing {

/**
 * Everything the invariant checks need from one platform shard, snapshotted
 * after the run. Checks never touch the live FleetSimulation: they operate
 * on this value type, which is what lets the simtest suite *corrupt* a copy
 * to prove the checker catches broken invariants (and lets digests be
 * compared across independent runs).
 */
struct PlatformArtifacts {
  std::string name;

  // Engine.
  uint64_t queries_completed = 0;
  uint64_t io_failures = 0;

  // Tracer bookkeeping.
  uint64_t queries_seen = 0;
  uint64_t queries_sampled = 0;
  uint64_t queries_finished = 0;
  uint64_t dropped_finishes = 0;
  uint64_t dropped_spans = 0;
  uint64_t open_traces = 0;
  uint64_t traces_folded = 0;
  std::vector<profiling::QueryTrace> traces;  // retained traces (copied)
  profiling::E2eBreakdownReport e2e;          // streaming aggregates

  // Event kernel.
  uint64_t events_executed = 0;
  uint64_t pending_events = 0;
  uint64_t cancelled_in_heap = 0;

  // Distributed filesystem, aggregated and per fileserver.
  struct ServerSnapshot {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t tier_reads[3] = {0, 0, 0};
    uint64_t ram_used = 0, ram_capacity = 0;
    uint64_t ssd_used = 0, ssd_capacity = 0;
  };
  std::vector<ServerSnapshot> servers;
  double tier_fractions[3] = {0, 0, 0};
  uint64_t failed_reads = 0;
  uint64_t failed_writes = 0;
  uint64_t invalid_writes = 0;
  uint64_t background_acks = 0;

  // RPC fabric.
  uint64_t completed_calls = 0;
  uint64_t failed_calls = 0;
  uint64_t retries_issued = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedge_wins = 0;
  uint64_t timeouts_fired = 0;
  uint64_t cancelled_attempts = 0;
  double wasted_seconds = 0;

  // Fault injector.
  uint64_t fault_decisions = 0;
  uint64_t injected_drops = 0;
  uint64_t injected_errors = 0;
  uint64_t injected_slowdowns = 0;
  uint64_t outage_hits = 0;

  // Shard fabric (all zero for fused platforms). Digests fold the message
  // counts — shard-layout-invariant, two per cross-kernel IO — and the
  // epoch count: barriers snap to global next-event times, so any sharded
  // layout of the same scenario executes the identical epoch sequence.
  // Only shard_count (pure execution layout) and the tripwire stay out.
  uint32_t shard_count = 0;
  uint64_t shard_messages_posted = 0;
  uint64_t shard_messages_delivered = 0;
  uint64_t shard_undelivered = 0;
  uint64_t shard_epochs = 0;
  // Envelopes delivered behind the destination clock — nonzero means a
  // post delivered less than one window ahead of its source's clock.
  uint64_t shard_late_deliveries = 0;

  // Continuous profiling (DESIGN.md §15). For sharded platforms this is
  // the barrier-merged aggregator, so folding it into the digest pins the
  // shard-layout invariance of the windowed pipeline: totals are integer
  // nanoseconds and quantiles pure functions of integer sketch counts, so
  // every field below must be bit-identical across shard layouts.
  struct WindowSnapshot {
    int64_t index = 0;
    uint64_t queries = 0;
    std::array<int64_t, profiling::kNumWindowCategories> total_nanos = {};
    std::array<uint64_t, profiling::kNumWindowCategories> samples = {};
    std::array<double, profiling::kNumWindowCategories> p50 = {};
    std::array<double, profiling::kNumWindowCategories> p99 = {};
  };
  bool continuous_enabled = false;
  std::vector<WindowSnapshot> windows;  // in window-index order
  std::array<profiling::BudgetStat, profiling::kNumWindowCategories>
      continuous_budget = {};
  std::vector<profiling::WindowAnomaly> continuous_anomalies;
  uint64_t continuous_anomalies_dropped = 0;
  uint64_t continuous_observed = 0;
  uint64_t continuous_evicted = 0;
  uint64_t continuous_late = 0;
  uint64_t continuous_merge_drops = 0;
};

/** Snapshot of one full fleet run plus the scenario facts checks rely on. */
struct RunArtifacts {
  uint64_t scenario_seed = 0;
  uint64_t queries_per_platform = 0;
  bool retain_all = true;
  uint64_t reservoir_capacity = 0;  // bound on traces when !retain_all
  bool faults_armed = false;
  bool read_policy_plain = true;
  bool write_policy_plain = true;
  std::vector<PlatformArtifacts> platforms;

  // Serving front door (DESIGN.md §16). Plain copies of the door's
  // admission counters — kept as raw fields rather than a serve:: type so
  // the corruption tests can perturb them and the testing library stays
  // independent of the socket layer. All zero (serving=false) for batch
  // runs, where the serving-accounting check is vacuous.
  bool serving = false;
  uint64_t serve_offered = 0;    // query requests received
  uint64_t serve_admitted = 0;   // admitted into the fleet
  uint64_t serve_shed = 0;       // refused by admission control
  uint64_t serve_completed = 0;  // admitted queries that finished
  uint64_t serve_in_flight = 0;  // admitted - completed at snapshot time
  uint64_t serve_responses = 0;  // ok responses delivered
};

/** Snapshots every shard of a completed fleet run. */
RunArtifacts CollectArtifacts(const platforms::FleetSimulation& fleet);

/**
 * Order-independent-free bit-level fingerprint of a run: folds every
 * recovered number (report doubles by bit pattern, counters, span
 * boundaries) with FNV-1a. Two runs with equal digests recovered identical
 * results; the determinism invariants compare digests across serial,
 * parallel, and replay executions.
 */
uint64_t DigestArtifacts(const RunArtifacts& artifacts);

/** One invariant violation, attributable to a platform and an invariant. */
struct Violation {
  std::string invariant;  // registry name
  std::string platform;   // empty for fleet-wide checks
  std::string detail;     // human-readable specifics

  std::string ToString() const;
};

/**
 * Registry of named cross-cutting invariants evaluated against a run's
 * artifacts. `Default()` carries the full catalogue (see DESIGN.md §11);
 * tests register extra or restricted sets as needed.
 */
class InvariantRegistry {
 public:
  using Check =
      std::function<void(const RunArtifacts&, std::vector<Violation>&)>;

  void Register(std::string name, Check check);

  /** Runs every registered check; appends violations in registry order. */
  std::vector<Violation> Evaluate(const RunArtifacts& artifacts) const;

  std::vector<std::string> Names() const;
  size_t size() const { return checks_.size(); }

  /** The full default catalogue. */
  static InvariantRegistry Default();

 private:
  std::vector<std::pair<std::string, Check>> checks_;
};

}  // namespace hyperprof::testing

#endif  // HYPERPROF_TESTING_INVARIANTS_H_
