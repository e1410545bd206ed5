#!/usr/bin/env bash
# Format (or verify formatting of) the first-party C++ sources with
# clang-format and the committed .clang-format style.
#
#   scripts/format.sh            rewrite files in place
#   scripts/format.sh --check    exit 1 if any file needs reformat
#
# clang-format is NOT a build dependency: when the tool is absent
# this script prints a notice and exits 0, so scripts/check.sh and
# developer machines without LLVM keep working. CI runs the check
# as an advisory job for the same reason (docs/linting.md).
set -euo pipefail

cd "$(dirname "$0")/.."

mode="fix"
if [[ "${1:-}" == "--check" ]]; then
    mode="check"
elif [[ $# -gt 0 ]]; then
    echo "usage: scripts/format.sh [--check]" >&2
    exit 2
fi

fmt="${CLANG_FORMAT:-clang-format}"
if ! command -v "${fmt}" >/dev/null 2>&1; then
    echo "format.sh: ${fmt} not found; skipping (formatting is advisory)"
    exit 0
fi

# Same scan set as `pifetch lint`: first-party sources only, no
# third-party trees (tests/minitest is vendored).
mapfile -t files < <(
    find src examples tests \
        \( -path tests/minitest -o -path 'tests/minitest/*' \) -prune \
        -o -type f \( -name '*.cc' -o -name '*.cpp' \
                      -o -name '*.hh' -o -name '*.h' \) -print |
        sort
)

if [[ "${mode}" == "check" ]]; then
    bad=0
    for f in "${files[@]}"; do
        if ! "${fmt}" --dry-run --Werror "${f}" >/dev/null 2>&1; then
            echo "needs format: ${f}"
            bad=1
        fi
    done
    if [[ "${bad}" -ne 0 ]]; then
        echo "format.sh: run scripts/format.sh to fix" >&2
        exit 1
    fi
    echo "format.sh: ${#files[@]} files clean"
else
    "${fmt}" -i "${files[@]}"
    echo "format.sh: formatted ${#files[@]} files"
fi
