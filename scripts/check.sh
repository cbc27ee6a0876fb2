#!/usr/bin/env bash
# Configure, build, and run the full test suite. Usage:
#   scripts/check.sh            # RelWithDebInfo build + ctest
#   TSAN=1 scripts/check.sh     # same, in a separate build dir with
#                               # ThreadSanitizer (-DHYPERPROF_TSAN=ON)
#   ASAN=1 scripts/check.sh     # AddressSanitizer (-DHYPERPROF_ASAN=ON);
#                               # also smoke-runs the trace ingest
#                               # micro-bench to sweep the pooled/recycled
#                               # trace storage under ASan
#   FAULTS=1 scripts/check.sh   # additionally smoke-runs the fleet
#                               # example with a nonzero fault rate, so
#                               # the retry/hedge/cancellation paths get
#                               # exercised under whichever sanitizer the
#                               # build uses
#   UBSAN=1 scripts/check.sh    # UndefinedBehaviorSanitizer
#                               # (-DHYPERPROF_UBSAN=ON); also runs the
#                               # fixed-seed simtest fuzz block, which
#                               # sweeps the bit-punning digest and
#                               # attribution arithmetic
#   FUZZ=1 scripts/check.sh     # additionally runs the deterministic
#                               # simulation fuzz block (simtest_fuzz
#                               # --seeds 100 --base-seed 1) on whichever
#                               # build the other flags selected, with
#                               # native kernel dispatch forced (digests
#                               # must not depend on the dispatch policy)
#   SERVE=1 scripts/check.sh    # additionally smoke-runs the serving
#                               # front door: the epoll daemon plus the
#                               # open-loop load generator on loopback
#                               # (fleet_serve demo), sized small enough
#                               # to finish promptly under sanitizers.
#                               # Exercises admission, shedding, frame
#                               # reassembly, and the drain path end to
#                               # end over real sockets
#   SHARDS=N scripts/check.sh   # additionally re-runs the simtest fuzz
#                               # block with every scenario forced to N
#                               # worker kernels per platform (N=0 forces
#                               # the fused path), pinning the sharded
#                               # determinism contract — under TSan this
#                               # runs sharded platforms on pool threads
#   PERFBENCH=1 scripts/check.sh
#                               # additionally builds the repository
#                               # benchmark (perfbench/, its own optimized,
#                               # unsanitized CMake package under
#                               # .bench_build/) and runs each of its
#                               # three workloads for 2 s; fails if any
#                               # run exits nonzero, so an API change that
#                               # breaks the benchmark fails here too, or
#                               # if a seed-1 fleet digest differs from its
#                               # pin (scripts/perfbench_smoke.sh, shared
#                               # with CI)
#   BENCH=1 scripts/check.sh    # additionally smoke-runs the kernel
#                               # microbenchmarks (short min-time) so the
#                               # dispatch-pinned hot paths execute under
#                               # whichever sanitizer the build uses, plus
#                               # the continuous-profiling and serving
#                               # benches in smoke mode
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
if [[ "${TSAN:-0}" != "0" ]]; then
  BUILD_DIR=build-tsan
  CMAKE_ARGS+=(-DHYPERPROF_TSAN=ON)
fi
if [[ "${ASAN:-0}" != "0" ]]; then
  BUILD_DIR=build-asan
  CMAKE_ARGS+=(-DHYPERPROF_ASAN=ON)
fi
if [[ "${UBSAN:-0}" != "0" ]]; then
  # Composes with ASAN=1 (one build dir with both sanitizers); TSan+UBSan
  # is rejected at configure time.
  if [[ "${ASAN:-0}" != "0" ]]; then
    BUILD_DIR=build-asan-ubsan
  else
    BUILD_DIR=build-ubsan
  fi
  CMAKE_ARGS+=(-DHYPERPROF_UBSAN=ON)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Re-run every kernel-facing suite with the kernel dispatch policy pinned
# each way (the suite list lives in scripts/kernel_suites.sh, shared with
# CI).
scripts/kernel_suites.sh "$BUILD_DIR"

if [[ "${ASAN:-0}" != "0" ]]; then
  # Slot recycling, reservoir swaps, and interner string_view lifetimes get
  # a dedicated pass under ASan via the ingest micro-bench in smoke mode.
  "$BUILD_DIR/bench/trace_pipeline_micro" /tmp/asan_trace_pipeline.json smoke
fi

if [[ "${FAULTS:-0}" != "0" ]]; then
  # Fault-injection smoke: a small fleet run with a 5% fault rate drives
  # the timeout/retry/hedge machinery — timer cancellation, abandoned
  # attempts, quorum stragglers — under the sanitizers, where lifetime
  # bugs in the completion paths would otherwise hide.
  "$BUILD_DIR/examples/fleet_profile" 500 0.05
fi

if [[ "${SERVE:-0}" != "0" ]]; then
  # Serving smoke: in-process epoll daemon + open-loop load generator on
  # loopback. The demo exits nonzero unless every request is accounted for
  # (ok + shed + errors == sent, zero lost) and the door's admission
  # counters balance after drain — so socket lifetime or flush bugs fail
  # the build under whichever sanitizer is active.
  "$BUILD_DIR/examples/fleet_serve" demo 500 1500
fi

if [[ "${UBSAN:-0}" != "0" || "${FUZZ:-0}" != "0" ]]; then
  # Deterministic simulation fuzz: 100 fixed-seed scenarios, each run
  # three times — stepped through Start/Advance/Finish (the serving
  # daemon's pause/resume path) with mid-run checks after every step,
  # parallel, and replayed in one shot — with the full invariant
  # catalogue.
  # Native dispatch is forced so the hardware kernel paths run underneath
  # the digest comparison — the digests are computed from simulated
  # timings and must come out the same as under portable dispatch.
  # Reproduce a failure locally with:
  #   $BUILD_DIR/src/testing/simtest_fuzz --seeds 1 --base-seed <seed> --shrink
  HYPERPROF_KERNEL_DISPATCH=native \
    "$BUILD_DIR/src/testing/simtest_fuzz" --seeds 100 --base-seed 1
fi

if [[ -n "${SHARDS:-}" ]]; then
  # Sharded-determinism fuzz: the same fixed-seed block with every
  # scenario's shard count overridden. Each seed still runs its three
  # executions (stepped with mid-run checks, parallel, one-shot replay),
  # so shard-count bit-identity and the shard-exchange invariant get
  # swept under the build's sanitizers.
  "$BUILD_DIR/src/testing/simtest_fuzz" --seeds 50 --base-seed 1 \
    --shards "$SHARDS"
fi

if [[ "${BENCH:-0}" != "0" ]]; then
  # Kernel micro-bench smoke: short min-time, kernel filter only. Not for
  # numbers — it drives the SWAR/hardware hot paths (including both pinned
  # dispatch modes via BM_Crc32cDispatch) under the build's sanitizers.
  "$BUILD_DIR/bench/kernels_micro" \
    --benchmark_filter='BM_(Crc32c|Varint|Sha3|Compress|MessageRoundTrip)' \
    --benchmark_min_time=0.05
  # Continuous-profiling bench in smoke mode: windowed Observe/seal/merge
  # plus the flamegraph and pprof exporters under the build's sanitizers;
  # exits nonzero if the warmed windowed path heap-allocates.
  "$BUILD_DIR/bench/continuous_micro" /tmp/continuous_smoke.json smoke
  # Serving bench in smoke mode: daemon + load generator sweep a short
  # offered-load ladder (warmed, multi-connection) and report max
  # sustained QPS, accepted-only and shed-aware tail latency, and shed
  # rate; exits nonzero if any level loses a request or if the
  # steady-state allocation probe sees the warmed serving data plane
  # touch the heap (steady_state_serve_allocs != 0). The 1.5x-baseline
  # perf floor only arms on multi-core unsanitized full runs — smoke
  # prints a skip.
  "$BUILD_DIR/bench/serving_micro" /tmp/serving_smoke.json smoke
fi

if [[ "${PERFBENCH:-0}" != "0" ]]; then
  # Repository benchmark smoke with pinned seed-1 fleet digests (the loop
  # lives in scripts/perfbench_smoke.sh, shared with CI).
  scripts/perfbench_smoke.sh
fi
