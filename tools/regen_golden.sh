#!/bin/bash
# Rewrite the golden behaviour corpus (tests/golden/<set>.jsonl) from
# a built elag_golden.
#
# Usage: tools/regen_golden.sh [BUILD_DIR]     (default: build)
#
# Any diff this leaves in tests/golden/ is a change to a simulated
# number: commit it only together with a CHANGES.md line saying which
# runs moved and why.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}
golden=$build/tools/elag_golden
if [ ! -x "$golden" ]; then
    echo "regen_golden: $golden not built" >&2
    exit 1
fi

out=$root/tests/golden
mkdir -p "$out"
pids=()
for set in $("$golden" --list-sets); do
    "$golden" --set="$set" > "$out/$set.jsonl.tmp" &
    pids+=($!)
done
for pid in "${pids[@]}"; do
    wait "$pid"
done
for tmp in "$out"/*.jsonl.tmp; do
    mv "$tmp" "${tmp%.tmp}"
done
wc -l "$out"/*.jsonl
