#ifndef HYPERPROF_PROFILING_TRACER_H_
#define HYPERPROF_PROFILING_TRACER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "profiling/function_registry.h"

namespace hyperprof::profiling {

class BreakdownAccumulator;
class ContinuousProfiler;

/**
 * What a span's wall time represents, for end-to-end attribution.
 * Matches the paper's Section 4.1 taxonomy: CPU compute, distributed
 * storage IO, and remote work (waiting on remote workers: consensus,
 * remote compaction, shuffle).
 */
enum class SpanKind : uint8_t {
  kCpu = 0,
  kIo = 1,
  kRemoteWork = 2,
};

const char* SpanKindName(SpanKind kind);

/**
 * One timed region inside a query, possibly nested under a parent.
 * Names are interned (see NameInterner): a span is a small POD, so the
 * per-span cost on the measurement path is a vector append, never a
 * string allocation.
 */
struct Span {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  SpanKind kind = SpanKind::kCpu;
  NameId name = kInvalidNameId;
  SimTime start;
  SimTime end;
};

/** A sampled query's full trace. Platform/type names are interned. */
struct QueryTrace {
  uint64_t trace_id = 0;
  NameId platform = kInvalidNameId;
  NameId query_type = kInvalidNameId;
  SimTime start;
  SimTime end;
  std::vector<Span> spans;
};

/** Per-query attributed wall time (seconds), after overlap resolution. */
struct AttributedTime {
  double cpu = 0;
  double io = 0;
  double remote = 0;
  double Total() const { return cpu + io + remote; }
};

/** The overlap-resolution order applied to concurrent spans. */
struct AttributionPolicy {
  // Priority ranks; lower rank wins an overlapped instant. The paper's
  // policy (Section 4.1): remote work first, then IO, then CPU.
  int cpu_rank = 2;
  int io_rank = 1;
  int remote_rank = 0;

  static AttributionPolicy PaperDefault() { return AttributionPolicy{}; }
};

/**
 * Reusable scratch for AttributeTrace's boundary sweep. A tracer (or any
 * caller attributing many traces) keeps one instance so the boundary
 * buffer is allocated once and recycled, not re-allocated per trace.
 */
struct AttributionScratch {
  struct Boundary {
    SimTime at;
    int kind;   // SpanKind as int
    int delta;  // +1 open, -1 close
  };
  std::vector<Boundary> boundaries;
};

/**
 * Resolves overlapping spans into exclusive per-kind time using a
 * boundary sweep: each elementary interval is attributed to the active
 * kind with the best (lowest) rank. Gaps covered by no span contribute
 * nothing.
 *
 * The scratch-taking overload performs no steady-state allocation. Spans
 * are recorded at completion time, so for the common
 * sequential-phase queries the boundary list is built already sorted and
 * the sort is skipped entirely.
 */
AttributedTime AttributeTrace(const QueryTrace& trace,
                              const AttributionPolicy& policy,
                              AttributionScratch& scratch);

AttributedTime AttributeTrace(const QueryTrace& trace,
                              const AttributionPolicy& policy =
                                  AttributionPolicy::PaperDefault());

/** What the tracer does with a trace after folding it into aggregates. */
enum class TraceRetention : uint8_t {
  /**
   * Keep every completed trace (the seed behaviour). Required by the
   * ablation studies that re-attribute traces under alternative policies.
   */
  kRetainAll,
  /**
   * Streaming mode: traces are folded into the running breakdown at
   * FinishQuery and their storage is recycled; only a bounded,
   * deterministic reservoir sample is kept for export sinks. Steady-state
   * memory is O(open traces + reservoir), not O(completed traces).
   */
  kSampleReservoir,
};

/** Tuning for Tracer construction beyond the sampling rate. */
struct TracerOptions {
  TraceRetention retention = TraceRetention::kRetainAll;
  /** Max traces kept for export in kSampleReservoir mode. */
  size_t reservoir_capacity = 256;
};

/**
 * Dapper-like trace collector with uniform 1-in-N query sampling.
 *
 * Platforms begin a query with StartQuery (which decides sampling), add
 * spans through the returned handle, and finish with FinishQuery. Only
 * sampled queries touch any storage — at production rates tracing every
 * query would be prohibitive, which is exactly why the paper samples
 * one-thousandth of traffic.
 *
 * Hot-path layout (mirrors the event kernel's slot design): open traces
 * live in a slot table indexed by the returned handle, which encodes
 * (slot, generation) — AddSpan and FinishQuery are O(1) lookups with no
 * hashing, and a stale handle is recognized by generation mismatch
 * instead of silently corrupting another query's trace. Slots and their
 * span vectors are recycled across queries, so after warm-up the
 * ingest path performs zero allocations.
 *
 * Every finished trace is folded into a streaming BreakdownAccumulator
 * at FinishQuery — attribution happens exactly once per trace, and the
 * Figure 2 style aggregates are available at any time without walking
 * retained traces.
 */
class Tracer {
 public:
  /** Sentinel for unsampled queries. */
  static constexpr uint64_t kNotSampled = 0;

  /**
   * @param sample_one_in Sample each query with probability 1/N.
   * @param rng Sampling randomness (owned).
   * @param options Retention mode and reservoir bound.
   */
  Tracer(uint32_t sample_one_in, Rng rng, TracerOptions options = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /**
   * Registers a query start. Returns a nonzero trace handle if sampled,
   * kNotSampled otherwise. Callers intern names once up front (see
   * names()) and pass ids on the hot path.
   */
  uint64_t StartQuery(NameId platform, NameId query_type, SimTime now);

  /** Convenience overload that interns on the fly (tests, cold paths). */
  uint64_t StartQuery(std::string_view platform, std::string_view query_type,
                      SimTime now);

  /**
   * StartQuery with the sampling decision made by the caller and, for
   * sampled queries, a caller-chosen trace id (the internal id counter is
   * not consumed). Shard engines draw the decision from the query's
   * private stream and use the global query index as the id, so the set
   * of sampled queries and their ids are independent of shard layout;
   * the post-run merge replays shard traces through this entry point.
   * `forced_trace_id` must be nonzero and unique per tracer when sampled.
   */
  uint64_t StartQueryForced(NameId platform, NameId query_type, SimTime now,
                            bool sampled, uint64_t forced_trace_id);

  /**
   * Bytes of trace storage currently reserved (open-trace slots, retained
   * traces, span vectors — capacities, not sizes). RSS-independent input
   * to the fleet's memory accounting.
   */
  size_t memory_bytes() const;

  /** Adds a span to a sampled trace. No-op when trace_id==kNotSampled. */
  void AddSpan(uint64_t trace_id, SpanKind kind, NameId name, SimTime start,
               SimTime end, uint64_t parent_id = 0);

  /** Convenience overload that interns the span name on the fly. */
  void AddSpan(uint64_t trace_id, SpanKind kind, std::string_view name,
               SimTime start, SimTime end, uint64_t parent_id = 0);

  /**
   * Completes a sampled trace: folds it into the streaming breakdown,
   * then retains or recycles it per the retention mode. No-op when
   * trace_id==kNotSampled; an unknown/stale handle is counted in
   * dropped_finishes() instead of corrupting live state.
   */
  void FinishQuery(uint64_t trace_id, SimTime end);

  /**
   * Retained traces in completion order: all of them under kRetainAll, a
   * bounded deterministic sample under kSampleReservoir.
   */
  const std::vector<QueryTrace>& traces() const { return traces_; }

  /** The name table shared by this tracer's traces. */
  NameInterner& names() { return names_; }
  const NameInterner& names() const { return names_; }

  /** Streaming per-group/per-type aggregates over ALL finished traces. */
  const BreakdownAccumulator& breakdown() const { return *breakdown_; }

  /**
   * Attaches a continuous (windowed) profiler: every FinishQuery also
   * feeds the query's finish time, latency, and attributed breakdown into
   * the observer's current window. Not owned; pass nullptr to detach.
   * The observer reuses the attribution already computed for the
   * streaming breakdown, so the hook adds no second trace walk.
   */
  void set_continuous(ContinuousProfiler* continuous) {
    continuous_ = continuous;
  }
  ContinuousProfiler* continuous() const { return continuous_; }

  /** The sampling rate: each query is sampled with probability 1/N. */
  uint32_t sample_one_in() const { return sample_one_in_; }

  uint64_t queries_seen() const { return queries_seen_; }
  uint64_t queries_sampled() const { return queries_sampled_; }
  uint64_t queries_finished() const { return queries_finished_; }

  /** FinishQuery calls whose handle matched no open trace. */
  uint64_t dropped_finishes() const { return dropped_finishes_; }
  /** AddSpan calls whose handle matched no open trace. */
  uint64_t dropped_spans() const { return dropped_spans_; }

  /** Currently open (started, unfinished) sampled traces. */
  size_t open_traces() const { return open_count_; }
  /** Allocated open-trace slots (high-water mark of concurrency). */
  size_t open_slot_capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint32_t gen = 0;
    bool open = false;
    QueryTrace trace;  // spans vector capacity is recycled across queries
  };

  /** Resolves a handle to its open slot, or nullptr. */
  Slot* ResolveOpen(uint64_t trace_id);

  /** Allocates a slot for a sampled query; returns its handle. */
  uint64_t OpenTrace(NameId platform, NameId query_type, SimTime now,
                     uint64_t trace_id);

  uint32_t sample_one_in_;
  Rng rng_;
  TracerOptions options_;
  NameInterner names_;
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  uint64_t queries_seen_ = 0;
  uint64_t queries_sampled_ = 0;
  uint64_t queries_finished_ = 0;
  uint64_t dropped_finishes_ = 0;
  uint64_t dropped_spans_ = 0;
  size_t open_count_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<QueryTrace> traces_;
  // Reservoir state (kSampleReservoir): deterministic, independent of the
  // sampling stream so retention mode never perturbs sampling decisions.
  Rng reservoir_rng_;
  std::unique_ptr<BreakdownAccumulator> breakdown_;
  ContinuousProfiler* continuous_ = nullptr;  // not owned
};

}  // namespace hyperprof::profiling

#endif  // HYPERPROF_PROFILING_TRACER_H_
