#!/usr/bin/env bash
# One-shot perf check, mirroring scripts/check.sh and the CI
# perf-smoke job: build the Release CLI, run the kernel suite, and
# gate the result against the committed baseline.
#
# Extra arguments are forwarded to `pifetch perf` (e.g. --reps 9 or
# --kernel trace-replay). To refresh the committed baseline after an
# intentional perf-relevant change, run on a quiet machine:
#   ./build/pifetch perf --json bench/baseline/BENCH_baseline.json --quiet
# and commit the diff together with the change that moved the numbers.
set -euo pipefail

cd "$(dirname "$0")/.."

# A dedicated Release tree: gating an unoptimized build against the
# Release baseline would report a phantom regression, and forcing a
# build type onto the shared build/ tree would silently flip it for
# every later check.sh/regold.sh run.
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release \
    -DPIFETCH_BUILD_EXAMPLES=ON -DPIFETCH_BUILD_TESTS=OFF
cmake --build build-perf -j --target pifetch_cli

./build-perf/pifetch perf --json BENCH_local.json "$@"
python3 scripts/perf_compare.py \
    bench/baseline/BENCH_baseline.json BENCH_local.json
