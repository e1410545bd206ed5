#!/usr/bin/env bash
# Regenerate the golden-snapshot fixtures in tests/golden/.
#
# Run this ONLY when a simulator behavior change is intentional; the
# golden suite (tests/test_golden.cc) exists so that unintentional
# numeric drift fails CI. Commit the regenerated fixtures together
# with the change that moved the numbers and explain the delta in the
# commit message.
#
# The fixtures are canonical JSON from `pifetch golden <fixture>`:
# pinned small budgets, pinned metadata, no git/thread/host fields.
# Results are bit-identical at any PIFETCH_THREADS, so the regold
# output does not depend on this machine's core count. The zoo-*
# fixtures additionally load their workload spec from workloads/
# (see docs/workloads.md), so spec edits there require a regold too.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=build/pifetch

cmake -B build -S .
cmake --build build -j --target pifetch_cli

# Never regenerate fixtures from a missing or stale binary: goldens
# minted by an old build would lock in behavior the current sources
# do not have, and the mismatch would surface as a confusing CI
# failure on someone else's machine.
if [[ ! -x "${BIN}" ]]; then
    echo "regold: error: ${BIN} is missing after the build." >&2
    echo "regold: the pifetch_cli target did not produce it; check" >&2
    echo "regold: the CMake output above." >&2
    exit 1
fi
# Only compile inputs of the binary count: the sources under src/,
# the CLI's included (stray editor files, tests and examples do not
# feed pifetch_cli and must not trip the check; a newer .cc/.hh always
# triggers a relink, so a fresh successful build always passes).
# `|| true` guards the SIGPIPE that head can hand the find under
# pipefail.
stale=$( { find src -type f \( -name '*.cc' -o -name '*.hh' \) \
               -newer "${BIN}" 2>/dev/null | head -n 3; } || true)
if [[ -n "${stale}" ]]; then
    echo "regold: error: ${BIN} is stale — newer sources exist:" >&2
    while IFS= read -r f; do
        echo "regold:   ${f}" >&2
    done <<< "${stale}"
    echo "regold: rebuild it first:" >&2
    echo "regold:   cmake --build build -j --target pifetch_cli" >&2
    exit 1
fi

mkdir -p tests/golden
for exp in $("${BIN}" golden --list); do
    echo "regold: ${exp}"
    "${BIN}" golden "${exp}" > "tests/golden/${exp}.json"
done

echo "regenerated $(ls tests/golden/*.json | wc -l) fixtures;" \
     "review the diff before committing:"
git --no-pager diff --stat -- tests/golden || true
