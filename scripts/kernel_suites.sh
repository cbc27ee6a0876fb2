#!/usr/bin/env bash
# Runs every kernel-facing test suite twice, with the kernel dispatch
# policy pinned each way. Usage:
#   scripts/kernel_suites.sh [BUILD_DIR]     # default: build
#
# The datacenter-tax kernels select portable or hardware paths at runtime
# (common/cpu.h). The bit-identity contract means both passes must be
# green on any host, and under any sanitizer the build chose. The serve
# suites ride along because the wire framing's CRC32C goes through the
# same dispatch (a frame encoded under one pin must decode under the
# other — the daemon and its clients may resolve dispatch differently).
# This is the one list: scripts/check.sh and the CI workflow both call
# this script.
set -euo pipefail

BUILD_DIR="${1:-build}"
KERNEL_TESTS=(kernel_dispatch_test checksum_test wire_test message_test
              sha3_test compression_test fuzz_test continuous_test
              trace_export_test frame_fuzz_test serve_test
              serve_alloc_test)
for dispatch in portable native; do
  echo "== kernel suites with HYPERPROF_KERNEL_DISPATCH=$dispatch =="
  for test in "${KERNEL_TESTS[@]}"; do
    HYPERPROF_KERNEL_DISPATCH="$dispatch" "$BUILD_DIR/tests/$test" \
      --gtest_brief=1
  done
done
