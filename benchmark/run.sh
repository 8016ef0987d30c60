#!/usr/bin/env bash
# Build the benchmark program and run workloads, each in its own process.
#
# One workload:
#   benchmark/run.sh --workload mail-dvp [--seed 42] [--seconds 10] \
#       [--trace 0|1]
# prints a report and, as its last line, the result JSON
# ({"correct", "attempted", "failed", "metrics"}).
#
# Every workload in turn:
#   benchmark/run.sh [--seed 42] [--seconds 10] [--traced] [--sets N] \
#       [--out PREFIX]
# appends each run to PREFIX1.json .. PREFIXN.json (format in sets.py;
# existing files are extended, so alternating runs of two checkouts
# into two prefixes build the pairs compare.sh judges). The default
# PREFIX is a fresh name under benchmark/.out/.
#
# zombie_bench builds into benchmark/.build (Release, -O3) from ../src;
# the rendered FIU trace, the grid spool and the traced run's
# trace-<workload>.json live under benchmark/.out.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="$here/.build"
out="$here/.out"

workload=""
seed=42
seconds=10
trace=0
sets=1
prefix=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --sets) sets="$2"; shift 2 ;;
        --out) prefix="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2
mkdir -p "$out"

run_one() {
    "$build/zombie_bench" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" \
        --digests "$here/digests.txt" --tmp-dir "$out" \
        --trace-out "$out/trace-$1.json"
}

if [ -n "$workload" ]; then
    run_one "$workload"
    exit 0
fi

[ -n "$prefix" ] || prefix="$out/run-$(date +%Y%m%d-%H%M%S)-set"
for s in $(seq 1 "$sets"); do
    for w in $("$build/zombie_bench" --list); do
        run_one "$w" | tee "$out/last-run.txt"
        python3 "$here/sets.py" add "$prefix$s.json" "$out/last-run.txt"
    done
done
