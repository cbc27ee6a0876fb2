#include "testing/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/strings.h"
#include "profiling/aggregate.h"
#include "storage/dfs.h"

namespace hyperprof::testing {

namespace {

/** FNV-1a 64-bit fold helpers. */
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    // Bit pattern, not value: the determinism contract is bit-identity.
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  void Time(SimTime t) { U64(static_cast<uint64_t>(t.nanos())); }
};

void FoldAggregate(Fnv& fnv, const profiling::GroupAggregate& agg) {
  fnv.F64(agg.time.cpu);
  fnv.F64(agg.time.io);
  fnv.F64(agg.time.remote);
  fnv.F64(agg.fraction_sum.cpu);
  fnv.F64(agg.fraction_sum.io);
  fnv.F64(agg.fraction_sum.remote);
  fnv.U64(agg.query_count);
}

bool NearlyEqual(double a, double b, double tol) {
  return std::fabs(a - b) <=
         tol * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

/** Measure of the union of [start, end] span intervals, in seconds. */
double SpanUnionSeconds(const profiling::QueryTrace& trace) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(trace.spans.size());
  for (const auto& span : trace.spans) {
    intervals.emplace_back(span.start.nanos(), span.end.nanos());
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = INT64_MIN;
  for (const auto& [lo, hi] : intervals) {
    int64_t from = std::max(lo, cursor);
    if (hi > from) covered += hi - from;
    cursor = std::max(cursor, hi);
  }
  return static_cast<double>(covered) * 1e-9;
}

using Out = std::vector<Violation>;

void Report(Out& out, const char* invariant, const std::string& platform,
            std::string detail) {
  out.push_back(Violation{invariant, platform, std::move(detail)});
}

// --- Invariant catalogue -------------------------------------------------

/**
 * Time-attribution conservation: a trace's exclusive attributed time
 * equals the measure of the union of its spans, never exceeds the trace's
 * end-to-end window, and per-group fraction vectors behave like fractions.
 */
void CheckAttributionConservation(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    for (const auto& trace : p.traces) {
      profiling::AttributedTime time = profiling::AttributeTrace(trace);
      double total = time.Total();
      double window = (trace.end - trace.start).ToSeconds();
      if (time.cpu < 0 || time.io < 0 || time.remote < 0 ||
          !std::isfinite(total)) {
        Report(out, "attribution-conservation", p.name,
               StrFormat("trace %llu has negative/non-finite attribution",
                         static_cast<unsigned long long>(trace.trace_id)));
        continue;
      }
      if (total > window + 1e-9) {
        Report(out, "attribution-conservation", p.name,
               StrFormat("trace %llu attributed %.9fs > window %.9fs",
                         static_cast<unsigned long long>(trace.trace_id),
                         total, window));
      }
      double union_seconds = SpanUnionSeconds(trace);
      if (!NearlyEqual(total, union_seconds, 1e-9)) {
        Report(out, "attribution-conservation", p.name,
               StrFormat("trace %llu attributed %.12fs != span union %.12fs",
                         static_cast<unsigned long long>(trace.trace_id),
                         total, union_seconds));
      }
    }
    // Group-level fraction behaviour (streaming aggregates, so this also
    // holds in reservoir mode where most traces were recycled).
    auto check_group = [&](const profiling::GroupAggregate& agg,
                           const char* label) {
      double count = static_cast<double>(agg.query_count);
      double fraction_total = agg.fraction_sum.Total();
      if (agg.fraction_sum.cpu < 0 || agg.fraction_sum.io < 0 ||
          agg.fraction_sum.remote < 0 ||
          fraction_total > count * (1 + 1e-9) + 1e-9) {
        Report(out, "attribution-conservation", p.name,
               StrFormat("group %s fraction sum %.12f outside [0, n=%llu]",
                         label, fraction_total,
                         static_cast<unsigned long long>(agg.query_count)));
      }
      if (agg.time.Total() > 0) {
        profiling::AttributedTime f = agg.Fractions();
        if (!NearlyEqual(f.Total(), 1.0, 1e-9)) {
          Report(out, "attribution-conservation", p.name,
                 StrFormat("group %s breakdown fractions sum to %.12f != 1",
                           label, f.Total()));
        }
      }
    };
    for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
      check_group(p.e2e.groups[g], profiling::QueryGroupName(
                                       static_cast<profiling::QueryGroup>(g)));
    }
    check_group(p.e2e.overall, "overall");
  }
}

/**
 * Span causality: every span closes at or after it opens, lies inside its
 * trace's window, and (when parented) inside its parent's interval; traces
 * close at or after they open and no sampled trace is left open beyond the
 * tracer's accounted drops.
 */
void CheckSpanCausality(const RunArtifacts& run, Out& out) {
  std::unordered_map<uint64_t, const profiling::Span*> by_id;
  for (const auto& p : run.platforms) {
    for (const auto& trace : p.traces) {
      if (trace.end < trace.start) {
        Report(out, "span-causality", p.name,
               StrFormat("trace %llu ends before it starts",
                         static_cast<unsigned long long>(trace.trace_id)));
      }
      by_id.clear();
      for (const auto& span : trace.spans) by_id[span.span_id] = &span;
      for (const auto& span : trace.spans) {
        if (span.end < span.start) {
          Report(out, "span-causality", p.name,
                 StrFormat("span %llu finishes before it starts",
                           static_cast<unsigned long long>(span.span_id)));
        }
        if (span.start < trace.start || span.end > trace.end) {
          Report(out, "span-causality", p.name,
                 StrFormat("span %llu [%lld, %lld]ns outside trace window "
                           "[%lld, %lld]ns",
                           static_cast<unsigned long long>(span.span_id),
                           static_cast<long long>(span.start.nanos()),
                           static_cast<long long>(span.end.nanos()),
                           static_cast<long long>(trace.start.nanos()),
                           static_cast<long long>(trace.end.nanos())));
        }
        if (span.parent_id != 0) {
          auto parent = by_id.find(span.parent_id);
          if (parent == by_id.end()) {
            Report(out, "span-causality", p.name,
                   StrFormat("span %llu has unknown parent %llu",
                             static_cast<unsigned long long>(span.span_id),
                             static_cast<unsigned long long>(span.parent_id)));
          } else if (span.start < parent->second->start ||
                     span.end > parent->second->end) {
            Report(out, "span-causality", p.name,
                   StrFormat("span %llu escapes parent %llu interval",
                             static_cast<unsigned long long>(span.span_id),
                             static_cast<unsigned long long>(span.parent_id)));
          }
        }
      }
    }
    if (p.open_traces != 0) {
      Report(out, "span-causality", p.name,
             StrFormat("%llu traces still open at quiesce",
                       static_cast<unsigned long long>(p.open_traces)));
    }
  }
}

/**
 * Tracer bookkeeping: the sampled population flows seen -> sampled ->
 * finished with nothing lost — the engine finishes every query it starts,
 * so stale-handle drop counters must stay zero and retention must hold
 * exactly the folded population (kRetainAll) or a bounded sample.
 */
void CheckTracerBookkeeping(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    if (p.queries_seen != p.totals.queries_completed) {
      Report(out, "tracer-bookkeeping", p.name,
             StrFormat("tracer saw %llu queries, engine completed %llu",
                       static_cast<unsigned long long>(p.queries_seen),
                       static_cast<unsigned long long>(
                           p.totals.queries_completed)));
    }
    if (p.queries_sampled > p.queries_seen) {
      Report(out, "tracer-bookkeeping", p.name, "sampled > seen");
    }
    if (p.queries_finished != p.queries_sampled) {
      Report(out, "tracer-bookkeeping", p.name,
             StrFormat("sampled %llu != finished %llu",
                       static_cast<unsigned long long>(p.queries_sampled),
                       static_cast<unsigned long long>(p.queries_finished)));
    }
    if (p.dropped_finishes != 0 || p.dropped_spans != 0) {
      Report(out, "tracer-bookkeeping", p.name,
             StrFormat("stale handles on the hot path: %llu finishes, "
                       "%llu spans dropped",
                       static_cast<unsigned long long>(p.dropped_finishes),
                       static_cast<unsigned long long>(p.dropped_spans)));
    }
    if (p.traces_folded != p.queries_finished) {
      Report(out, "tracer-bookkeeping", p.name,
             StrFormat("folded %llu != finished %llu",
                       static_cast<unsigned long long>(p.traces_folded),
                       static_cast<unsigned long long>(p.queries_finished)));
    }
    if (run.retain_all && p.traces.size() != p.queries_finished) {
      Report(out, "tracer-bookkeeping", p.name,
             StrFormat("kRetainAll kept %zu traces for %llu finishes",
                       p.traces.size(),
                       static_cast<unsigned long long>(p.queries_finished)));
    }
    if (!run.retain_all && p.traces.size() > p.queries_finished) {
      Report(out, "tracer-bookkeeping", p.name,
             "reservoir holds more traces than ever finished");
    }
    if (!run.retain_all && run.reservoir_capacity > 0 &&
        p.traces.size() > run.reservoir_capacity) {
      Report(out, "tracer-bookkeeping", p.name,
             StrFormat("reservoir holds %zu traces over capacity %llu",
                       p.traces.size(),
                       static_cast<unsigned long long>(
                           run.reservoir_capacity)));
    }
    uint64_t group_count = 0;
    for (const auto& group : p.e2e.groups) group_count += group.query_count;
    if (group_count != p.e2e.overall.query_count ||
        group_count != p.queries_finished) {
      Report(out, "tracer-bookkeeping", p.name,
             StrFormat("group populations %llu vs overall %llu vs "
                       "finished %llu disagree",
                       static_cast<unsigned long long>(group_count),
                       static_cast<unsigned long long>(
                           p.e2e.overall.query_count),
                       static_cast<unsigned long long>(p.queries_finished)));
    }
  }
}

/**
 * Event-kernel sanity at quiesce: the queue drained (no live events, no
 * stale cancelled entries left in the heap) and work actually happened.
 */
void CheckKernelQuiesce(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    if (p.totals.pending_events != 0) {
      Report(out, "kernel-quiesce", p.name,
             StrFormat("%llu events still pending",
                       static_cast<unsigned long long>(
                           p.totals.pending_events)));
    }
    if (p.totals.cancelled_in_heap != 0) {
      Report(out, "kernel-quiesce", p.name,
             StrFormat("%llu cancelled entries still in the drained heap",
                       static_cast<unsigned long long>(
                           p.totals.cancelled_in_heap)));
    }
    if (run.queries_per_platform > 0 &&
        p.totals.events_executed < p.totals.queries_completed) {
      Report(out, "kernel-quiesce", p.name,
             "fewer events executed than queries completed");
    }
  }
}

/**
 * DFS conservation: per-fileserver tier serve counters sum to that
 * server's reads, the fleet-level tier fractions form a distribution, and
 * cache ledgers never exceed capacity. Fault-free runs with plain policies
 * must not fail a single IO.
 */
void CheckDfsConservation(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    uint64_t total_reads = 0;
    for (size_t s = 0; s < p.servers.size(); ++s) {
      const auto& server = p.servers[s];
      uint64_t tier_sum = server.tier_reads[0] + server.tier_reads[1] +
                          server.tier_reads[2];
      if (tier_sum != server.reads) {
        Report(out, "dfs-conservation", p.name,
               StrFormat("server %zu tier reads %llu != reads %llu", s,
                         static_cast<unsigned long long>(tier_sum),
                         static_cast<unsigned long long>(server.reads)));
      }
      if (server.ram_used > server.ram_capacity) {
        Report(out, "dfs-conservation", p.name,
               StrFormat("server %zu RAM ledger %llu over capacity %llu", s,
                         static_cast<unsigned long long>(server.ram_used),
                         static_cast<unsigned long long>(
                             server.ram_capacity)));
      }
      if (server.ssd_used > server.ssd_capacity) {
        Report(out, "dfs-conservation", p.name,
               StrFormat("server %zu SSD ledger %llu over capacity %llu", s,
                         static_cast<unsigned long long>(server.ssd_used),
                         static_cast<unsigned long long>(
                             server.ssd_capacity)));
      }
      total_reads += server.reads;
    }
    if (total_reads > 0) {
      double fraction_sum =
          p.tier_fractions[0] + p.tier_fractions[1] + p.tier_fractions[2];
      if (!NearlyEqual(fraction_sum, 1.0, 1e-12)) {
        Report(out, "dfs-conservation", p.name,
               StrFormat("tier serve fractions sum to %.15f", fraction_sum));
      }
    }
    if (p.invalid_writes != 0) {
      Report(out, "dfs-conservation", p.name,
             "engine issued replication=0 writes");
    }
    if (!run.faults_armed && run.read_policy_plain &&
        run.write_policy_plain &&
        (p.failed_reads != 0 || p.failed_writes != 0 ||
         p.totals.io_failures != 0)) {
      Report(out, "dfs-conservation", p.name,
             StrFormat("fault-free plain run failed IOs "
                       "(reads=%llu writes=%llu engine=%llu)",
                       static_cast<unsigned long long>(p.failed_reads),
                       static_cast<unsigned long long>(p.failed_writes),
                       static_cast<unsigned long long>(p.totals.io_failures)));
    }
  }
}

/**
 * RPC accounting: hedging winners are a subset of hedges issued,
 * cancellations never exceed the extra attempts that could lose, wasted
 * time is finite, non-negative, and zero exactly when nothing failed,
 * retried, hedged, or timed out.
 */
void CheckRpcAccounting(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    if (p.totals.hedge_wins > p.totals.hedges_issued) {
      Report(out, "rpc-accounting", p.name,
             StrFormat("hedge wins %llu > hedges issued %llu",
                       static_cast<unsigned long long>(p.totals.hedge_wins),
                       static_cast<unsigned long long>(
                           p.totals.hedges_issued)));
    }
    const uint64_t extra_attempts =
        p.totals.retries_issued + p.totals.hedges_issued;
    if (p.totals.cancelled_attempts > extra_attempts) {
      Report(out, "rpc-accounting", p.name,
             StrFormat("cancelled %llu > extra attempts %llu",
                       static_cast<unsigned long long>(
                           p.totals.cancelled_attempts),
                       static_cast<unsigned long long>(extra_attempts)));
    }
    if (!std::isfinite(p.totals.wasted_seconds) ||
        p.totals.wasted_seconds < 0) {
      Report(out, "rpc-accounting", p.name, "wasted seconds not in [0, inf)");
    }
    bool any_resilience_activity = p.totals.retries_issued != 0 ||
                                   p.totals.hedges_issued != 0 ||
                                   p.totals.timeouts_fired != 0 ||
                                   p.totals.failed_calls != 0;
    if (!any_resilience_activity && p.totals.wasted_seconds != 0) {
      Report(out, "rpc-accounting", p.name,
             StrFormat("wasted %.9fs with no failed/extra attempts",
                       p.totals.wasted_seconds));
    }
    if (!run.faults_armed && run.read_policy_plain &&
        run.write_policy_plain && any_resilience_activity) {
      Report(out, "rpc-accounting", p.name,
             "resilience machinery fired in a fault-free plain run");
    }
  }
}

/**
 * Fault-model gating: a disarmed model draws nothing (the
 * zero-perturbation contract), and an armed model's injections are
 * bounded by its decisions.
 */
void CheckFaultGating(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    uint64_t injected_draws = p.totals.injected_drops +
                              p.totals.injected_errors +
                              p.totals.injected_slowdowns;
    if (!run.faults_armed &&
        (p.totals.fault_decisions != 0 || injected_draws != 0 ||
         p.totals.outage_hits != 0)) {
      Report(out, "fault-gating", p.name,
             "disarmed fault model was consulted");
    }
    if (injected_draws > p.totals.fault_decisions) {
      Report(out, "fault-gating", p.name,
             StrFormat("injected %llu > decisions %llu",
                       static_cast<unsigned long long>(injected_draws),
                       static_cast<unsigned long long>(
                           p.totals.fault_decisions)));
    }
  }
}

/**
 * Streaming/batch breakdown consistency (kRetainAll only): re-attributing
 * the retained traces through the batch path must reproduce the streaming
 * accumulator's aggregates bit-for-bit — the contract that let the tracer
 * recycle trace storage (DESIGN.md §9).
 */
void CheckBreakdownConsistency(const RunArtifacts& run, Out& out) {
  if (!run.retain_all) return;
  for (const auto& p : run.platforms) {
    profiling::E2eBreakdownReport batch =
        profiling::ComputeE2eBreakdown(p.traces);
    auto mismatch = [](const profiling::GroupAggregate& a,
                       const profiling::GroupAggregate& b) {
      return a.query_count != b.query_count || a.time.cpu != b.time.cpu ||
             a.time.io != b.time.io || a.time.remote != b.time.remote ||
             a.fraction_sum.cpu != b.fraction_sum.cpu ||
             a.fraction_sum.io != b.fraction_sum.io ||
             a.fraction_sum.remote != b.fraction_sum.remote;
    };
    for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
      if (mismatch(batch.groups[g], p.e2e.groups[g])) {
        Report(out, "breakdown-consistency", p.name,
               StrFormat("streaming and batch aggregates diverge in group "
                         "%zu",
                         g));
      }
    }
    if (mismatch(batch.overall, p.e2e.overall)) {
      Report(out, "breakdown-consistency", p.name,
             "streaming and batch overall aggregates diverge");
    }
  }
}

/**
 * Shard-exchange conservation: the epoch fabric must deliver every
 * envelope it accepted — a sharded platform quiesces only when all
 * cross-kernel mailboxes drain (DESIGN.md §13). Fused platforms report no
 * fabric at all.
 */
void CheckShardExchange(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    if (p.shards.late_deliveries != 0) {
      Report(out, "shard-exchange", p.name,
             StrFormat("%llu envelopes delivered behind the destination "
                       "clock (a post broke its one-window lookahead)",
                       static_cast<unsigned long long>(
                           p.shards.late_deliveries)));
    }
    if (p.shards.shard_count == 0) {
      if (p.shards.messages_posted != 0 || p.shards.messages_delivered != 0 ||
          p.shards.undelivered != 0 || p.shards.epochs != 0) {
        Report(out, "shard-exchange", p.name,
               "fused platform reports shard fabric activity");
      }
      continue;
    }
    if (p.shards.messages_posted != 0 && p.shards.epochs == 0) {
      Report(out, "shard-exchange", p.name,
             "fabric carried messages without running a single epoch");
    }
    if (p.shards.messages_delivered != p.shards.messages_posted) {
      Report(out, "shard-exchange", p.name,
             StrFormat("delivered %llu != posted %llu",
                       static_cast<unsigned long long>(
                           p.shards.messages_delivered),
                       static_cast<unsigned long long>(
                           p.shards.messages_posted)));
    }
    if (p.shards.undelivered != 0) {
      Report(out, "shard-exchange", p.name,
             StrFormat("%llu envelopes stranded in mailboxes at quiesce",
                       static_cast<unsigned long long>(p.shards.undelivered)));
    }
  }
}

/**
 * Continuous-window conservation: every sampled query the tracer finished
 * landed in exactly one window, window sample counts agree with the query
 * counts, budget verdicts are consistent with the anomaly log, and a
 * history that evicted nothing holds every observed query. Holds for
 * fused and shard-merged profilers alike (DESIGN.md §15).
 */
void CheckContinuousWindows(const RunArtifacts& run, Out& out) {
  for (const auto& p : run.platforms) {
    if (!p.continuous_enabled) continue;
    if (p.continuous_late != 0) {
      Report(out, "continuous-windows", p.name,
             StrFormat("%llu observations arrived behind the seal cursor",
                       static_cast<unsigned long long>(p.continuous_late)));
    }
    if (p.continuous_observed != p.queries_finished) {
      Report(out, "continuous-windows", p.name,
             StrFormat("windowed %llu queries, tracer finished %llu",
                       static_cast<unsigned long long>(p.continuous_observed),
                       static_cast<unsigned long long>(p.queries_finished)));
    }
    uint64_t window_queries = 0;
    for (const auto& window : p.windows) {
      window_queries += window.queries;
      for (size_t c = 0; c < profiling::kNumWindowCategories; ++c) {
        if (window.samples[c] > window.queries) {
          Report(out, "continuous-windows", p.name,
                 StrFormat("window %lld category %zu holds %llu samples for "
                           "%llu queries",
                           static_cast<long long>(window.index), c,
                           static_cast<unsigned long long>(window.samples[c]),
                           static_cast<unsigned long long>(window.queries)));
        }
        if (window.total_nanos[c] < 0) {
          Report(out, "continuous-windows", p.name,
                 StrFormat("window %lld category %zu total is negative",
                           static_cast<long long>(window.index), c));
        }
      }
    }
    if (p.continuous_evicted == 0 && window_queries != p.continuous_observed) {
      Report(out, "continuous-windows", p.name,
             StrFormat("history holds %llu queries, profiler observed %llu "
                       "with no evictions",
                       static_cast<unsigned long long>(window_queries),
                       static_cast<unsigned long long>(
                           p.continuous_observed)));
    }
    uint64_t overruns = 0;
    for (const auto& stat : p.continuous_budget) overruns += stat.overruns;
    if (p.continuous_anomalies.size() + p.continuous_anomalies_dropped !=
        overruns) {
      Report(out, "continuous-windows", p.name,
             StrFormat("anomaly log (%zu stored + %llu dropped) disagrees "
                       "with %llu budget overruns",
                       p.continuous_anomalies.size(),
                       static_cast<unsigned long long>(
                           p.continuous_anomalies_dropped),
                       static_cast<unsigned long long>(overruns)));
    }
  }
}

/**
 * Serving-door conservation (DESIGN.md §16): every offered query was
 * either admitted or shed, every admitted query is completed or still in
 * flight, and a response exists exactly for each completion — no response
 * without an admitted request, no silently dropped admission. Vacuous for
 * batch runs (serving=false).
 */
void CheckServingAccounting(const RunArtifacts& run, Out& out) {
  if (!run.serving) return;
  if (run.serve_admitted + run.serve_shed != run.serve_offered) {
    Report(out, "serving-accounting", "",
           StrFormat("admitted %llu + shed %llu != offered %llu",
                     static_cast<unsigned long long>(run.serve_admitted),
                     static_cast<unsigned long long>(run.serve_shed),
                     static_cast<unsigned long long>(run.serve_offered)));
  }
  if (run.serve_completed + run.serve_in_flight != run.serve_admitted) {
    Report(out, "serving-accounting", "",
           StrFormat("completed %llu + in-flight %llu != admitted %llu",
                     static_cast<unsigned long long>(run.serve_completed),
                     static_cast<unsigned long long>(run.serve_in_flight),
                     static_cast<unsigned long long>(run.serve_admitted)));
  }
  if (run.serve_responses != run.serve_completed) {
    // A response is delivered exactly when an admitted query completes:
    // responses beyond completions were forged, fewer were dropped.
    Report(out, "serving-accounting", "",
           StrFormat("responses %llu != completed %llu",
                     static_cast<unsigned long long>(run.serve_responses),
                     static_cast<unsigned long long>(run.serve_completed)));
  }
}

}  // namespace

RunArtifacts CollectArtifacts(const platforms::FleetSimulation& fleet) {
  RunArtifacts run;
  for (size_t index = 0; index < fleet.platform_count(); ++index) {
    PlatformArtifacts p;
    p.name = fleet.EngineOf(index).spec().name;
    // Summed accounting: identical to the single instance's counters for
    // fused platforms, workers + storage plane for sharded ones — so the
    // conservation checks below hold unchanged in both modes.
    p.totals = fleet.TotalsOf(index);
    p.shards = fleet.ShardStatsOf(index);

    const auto& tracer = fleet.TracerOf(index);
    p.queries_seen = tracer.queries_seen();
    p.queries_sampled = tracer.queries_sampled();
    p.queries_finished = tracer.queries_finished();
    p.dropped_finishes = tracer.dropped_finishes();
    p.dropped_spans = tracer.dropped_spans();
    p.open_traces = tracer.open_traces();
    p.traces_folded = tracer.breakdown().traces_folded();
    p.traces = tracer.traces();
    p.e2e = tracer.breakdown().e2e();

    const auto& dfs = fleet.DfsOf(index);
    for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
      const storage::TieredStore& store = dfs.server_store(s);
      PlatformArtifacts::ServerSnapshot server;
      server.reads = store.reads();
      server.writes = store.writes();
      for (int tier = 0; tier < 3; ++tier) {
        server.tier_reads[tier] =
            store.tier_reads(static_cast<storage::Tier>(tier));
      }
      server.ram_used = store.ram_cache().used_bytes();
      server.ram_capacity = store.ram_cache().capacity_bytes();
      server.ssd_used = store.ssd_cache().used_bytes();
      server.ssd_capacity = store.ssd_cache().capacity_bytes();
      p.servers.push_back(server);
    }
    for (int tier = 0; tier < 3; ++tier) {
      p.tier_fractions[tier] =
          dfs.TierServeFraction(static_cast<storage::Tier>(tier));
    }
    p.failed_reads = dfs.failed_reads();
    p.failed_writes = dfs.failed_writes();
    p.invalid_writes = dfs.invalid_writes();
    p.background_acks = dfs.background_acks();

    if (const profiling::ContinuousProfiler* continuous =
            fleet.ContinuousOf(index)) {
      p.continuous_enabled = true;
      for (int64_t w = continuous->first_window();
           w >= 0 && w <= continuous->last_window(); ++w) {
        const profiling::WindowSlot* slot = continuous->WindowAt(w);
        if (slot == nullptr) continue;
        PlatformArtifacts::WindowSnapshot window;
        window.index = slot->index;
        window.queries = slot->queries;
        window.total_nanos = slot->total_nanos;
        for (size_t c = 0; c < profiling::kNumWindowCategories; ++c) {
          window.samples[c] = slot->sketches[c].count();
          window.p50[c] = slot->sketches[c].Quantile(0.5);
          window.p99[c] = slot->sketches[c].Quantile(0.99);
        }
        p.windows.push_back(window);
      }
      for (size_t c = 0; c < profiling::kNumWindowCategories; ++c) {
        p.continuous_budget[c] =
            continuous->budget_stat(static_cast<profiling::WindowCategory>(c));
      }
      p.continuous_anomalies.assign(continuous->anomalies().begin(),
                                    continuous->anomalies().end());
      p.continuous_anomalies_dropped = continuous->anomalies_dropped();
      p.continuous_observed = continuous->observed_queries();
      p.continuous_evicted = continuous->windows_evicted();
      p.continuous_late = continuous->late_observations();
    }

    run.platforms.push_back(std::move(p));
  }
  return run;
}

uint64_t DigestArtifacts(const RunArtifacts& run) {
  Fnv fnv;
  fnv.U64(run.platforms.size());
  for (const auto& p : run.platforms) {
    fnv.Str(p.name);
    fnv.U64(p.totals.queries_completed);
    fnv.U64(p.totals.io_failures);
    fnv.U64(p.queries_seen);
    fnv.U64(p.queries_sampled);
    fnv.U64(p.queries_finished);
    fnv.U64(p.totals.events_executed);
    for (size_t g = 0; g < profiling::kNumQueryGroups; ++g) {
      FoldAggregate(fnv, p.e2e.groups[g]);
    }
    FoldAggregate(fnv, p.e2e.overall);
    fnv.U64(p.traces.size());
    for (const auto& trace : p.traces) {
      fnv.U64(trace.trace_id);
      fnv.U64(trace.platform);
      fnv.U64(trace.query_type);
      fnv.Time(trace.start);
      fnv.Time(trace.end);
      fnv.U64(trace.spans.size());
      for (const auto& span : trace.spans) {
        fnv.U64(span.span_id);
        fnv.U64(span.parent_id);
        fnv.U64(static_cast<uint64_t>(span.kind));
        fnv.U64(span.name);
        fnv.Time(span.start);
        fnv.Time(span.end);
      }
    }
    for (const auto& server : p.servers) {
      fnv.U64(server.reads);
      fnv.U64(server.writes);
      for (uint64_t reads : server.tier_reads) fnv.U64(reads);
      fnv.U64(server.ram_used);
      fnv.U64(server.ssd_used);
    }
    fnv.U64(p.failed_reads);
    fnv.U64(p.failed_writes);
    fnv.U64(p.background_acks);
    fnv.U64(p.totals.completed_calls);
    fnv.U64(p.totals.failed_calls);
    fnv.U64(p.totals.retries_issued);
    fnv.U64(p.totals.hedges_issued);
    fnv.U64(p.totals.hedge_wins);
    fnv.U64(p.totals.timeouts_fired);
    fnv.U64(p.totals.cancelled_attempts);
    fnv.F64(p.totals.wasted_seconds);
    fnv.U64(p.totals.fault_decisions);
    fnv.U64(p.totals.injected_drops);
    fnv.U64(p.totals.injected_errors);
    fnv.U64(p.totals.injected_slowdowns);
    fnv.U64(p.totals.outage_hits);
    // Shard-layout-invariant fabric traffic and epoch schedule: barriers
    // snap to global next-event times, so these match across thread
    // schedules AND shard layouts. shard_count itself stays out (pure
    // execution layout). The constant 0 fills the slot of the retired
    // coalesced-epoch count, so fused digests stay comparable with
    // earlier builds.
    fnv.U64(p.shards.messages_posted);
    fnv.U64(p.shards.messages_delivered);
    fnv.U64(p.shards.epochs);
    fnv.U64(0);
    // Continuous-profiling windows: integer totals and sketch-derived
    // percentiles are shard-layout-invariant by construction (int64/uint64
    // accumulation; DESIGN.md §15), so they belong in the digest alongside
    // the breakdown doubles.
    fnv.U64(p.continuous_enabled ? 1 : 0);
    fnv.U64(p.windows.size());
    for (const auto& window : p.windows) {
      fnv.U64(static_cast<uint64_t>(window.index));
      fnv.U64(window.queries);
      for (size_t c = 0; c < profiling::kNumWindowCategories; ++c) {
        fnv.U64(static_cast<uint64_t>(window.total_nanos[c]));
        fnv.U64(window.samples[c]);
        fnv.F64(window.p50[c]);
        fnv.F64(window.p99[c]);
      }
    }
    for (const auto& stat : p.continuous_budget) {
      fnv.U64(stat.windows_evaluated);
      fnv.U64(stat.overruns);
      fnv.U64(static_cast<uint64_t>(stat.worst_total_nanos));
      fnv.U64(static_cast<uint64_t>(stat.worst_window));
    }
    fnv.U64(p.continuous_anomalies.size());
    for (const auto& anomaly : p.continuous_anomalies) {
      fnv.U64(static_cast<uint64_t>(anomaly.window));
      fnv.U64(static_cast<uint64_t>(anomaly.category));
      fnv.U64(static_cast<uint64_t>(anomaly.total_nanos));
      fnv.U64(static_cast<uint64_t>(anomaly.budget_nanos));
    }
    fnv.U64(p.continuous_anomalies_dropped);
    fnv.U64(p.continuous_observed);
  }
  // Serving-door counters: fleet-wide, deterministic given the admission
  // schedule, so two runs of the same serving session must agree.
  fnv.U64(run.serving ? 1 : 0);
  if (run.serving) {
    fnv.U64(run.serve_offered);
    fnv.U64(run.serve_admitted);
    fnv.U64(run.serve_shed);
    fnv.U64(run.serve_completed);
    fnv.U64(run.serve_in_flight);
    fnv.U64(run.serve_responses);
  }
  return fnv.h;
}

std::string Violation::ToString() const {
  if (platform.empty()) return StrFormat("[%s] %s", invariant.c_str(),
                                         detail.c_str());
  return StrFormat("[%s] %s: %s", invariant.c_str(), platform.c_str(),
                   detail.c_str());
}

void InvariantRegistry::Register(std::string name, Check check) {
  checks_.emplace_back(std::move(name), std::move(check));
}

std::vector<Violation> InvariantRegistry::Evaluate(
    const RunArtifacts& artifacts) const {
  std::vector<Violation> violations;
  for (const auto& [name, check] : checks_) check(artifacts, violations);
  return violations;
}

std::vector<std::string> InvariantRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(checks_.size());
  for (const auto& [name, check] : checks_) names.push_back(name);
  return names;
}

InvariantRegistry InvariantRegistry::Default() {
  InvariantRegistry registry;
  registry.Register("attribution-conservation", CheckAttributionConservation);
  registry.Register("span-causality", CheckSpanCausality);
  registry.Register("tracer-bookkeeping", CheckTracerBookkeeping);
  registry.Register("kernel-quiesce", CheckKernelQuiesce);
  registry.Register("dfs-conservation", CheckDfsConservation);
  registry.Register("rpc-accounting", CheckRpcAccounting);
  registry.Register("fault-gating", CheckFaultGating);
  registry.Register("breakdown-consistency", CheckBreakdownConsistency);
  registry.Register("shard-exchange", CheckShardExchange);
  registry.Register("continuous-windows", CheckContinuousWindows);
  registry.Register("serving-accounting", CheckServingAccounting);
  return registry;
}

}  // namespace hyperprof::testing
