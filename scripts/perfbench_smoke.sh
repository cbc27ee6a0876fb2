#!/usr/bin/env bash
# Repository benchmark smoke. Usage:
#   scripts/perfbench_smoke.sh
#
# perfbench/ is a separate CMake package that root ctest never compiles.
# run.py builds it (optimized, unsanitized, under .bench_build/) and checks
# each run's outputs (digests, accounting, metric names). This script runs
# all three workloads for 2 s at seed 1 and fails if any run exits nonzero
# or a fleet workload's digest differs from its pin below. These runs are
# the only checks that drive the paper specs' full 8,000-query fleets,
# studies and exports. A change that moves the model updates the pins in
# the same change and says why, as goldens are re-pinned. This is the one
# loop: scripts/check.sh (PERFBENCH=1) and the CI workflow both call this
# script.
set -euo pipefail

cd "$(dirname "$0")/.."

declare -A PINNED_DIGESTS=(
  [fleet_fused]=b53357f9efed620b
  [fleet_sharded]=9dd24f0aea980a6d
)

for workload in fleet_fused fleet_sharded serve_spanner; do
  if ! out=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
               --seconds 2 --trace 0); then
    printf '%s\n' "$out"
    exit 1
  fi
  printf '%s\n' "$out"
  pinned="${PINNED_DIGESTS[$workload]:-}"
  [[ -n "$pinned" ]] || continue
  expected="digest $workload seed=1 $pinned"
  if ! grep -qxF "$expected" <<<"$out"; then
    echo "perfbench_smoke: expected '$expected', got:" >&2
    grep '^digest' <<<"$out" >&2 || echo "(no digest line)" >&2
    exit 1
  fi
done
