#!/bin/sh
# Build and test both configurations: the standard RelWithDebInfo
# tree (tier-1 gate) and the ASan+UBSan tree. Run from the repo root:
#
#   scripts/check.sh            # both configs
#   scripts/check.sh default    # just the standard build
#   scripts/check.sh asan-ubsan # just the sanitizer build
#   scripts/check.sh tsan       # thread sanitizer (parallel harness)
set -eu

cd "$(dirname "$0")/.."

presets="${1:-default asan-ubsan}"
jobs="$(nproc 2>/dev/null || echo 4)"

# Build tree per configure preset (CMakePresets.json binaryDir).
bindir_for() {
    case "$1" in
        default) echo build ;;
        asan-ubsan) echo build-asan ;;
        tsan) echo build-tsan ;;
        *) echo "build-$1" ;;
    esac
}

for preset in $presets; do
    echo "==> configure [$preset]"
    cmake --preset "$preset"
    echo "==> build [$preset]"
    cmake --build --preset "$preset" -j "$jobs"
    echo "==> ctest [$preset]"
    ctest --preset "$preset" -j "$jobs"

    # Flag inventory: every flag each bench and example lists in
    # --help, with its default, diffed against a golden, so a change
    # that adds, drops or re-defaults a flag shows up as a golden
    # diff. The micro_* benches (google-benchmark flags) and the
    # examples without an ArgParser take no options and are skipped.
    bindir="$(bindir_for "$preset")"
    echo "==> flag inventory [$preset]"
    for prog in "$bindir"/bench/* "$bindir"/examples/*; do
        [ -f "$prog" ] && [ -x "$prog" ] || continue
        name="$(basename "$prog")"
        case "$name" in
            micro_*) continue ;;
        esac
        case "$prog" in
            */examples/*)
                grep -q ArgParser "examples/$name.cpp" || continue ;;
        esac
        "$prog" --help | awk -v prog="$name" '
            /^  --/ && $1 != "--help" {
                if (match($0, /\(default: .*\)$/))
                    print prog " " $1 "=" \
                        substr($0, RSTART + 10, RLENGTH - 11)
                else
                    print prog " " $1
            }'
    done | LC_ALL=C sort > "$bindir/flags.txt"
    diff -u tests/golden/flags.txt "$bindir/flags.txt"

    # Smoke-run every bench at a tiny request count, with the parallel
    # harness engaged (--jobs 2) wherever the bench takes --jobs, so
    # harness regressions and data races surface here (especially
    # under the tsan preset), and byte-diff stdout against the
    # committed goldens: the simulated results are deterministic, so
    # any drift — across presets, optimization levels or hot-path
    # rewrites — is a bug. The micro_* benches are skipped.
    golden=tests/golden/smoke
    echo "==> smoke benches [$preset]"
    for bench in "$bindir"/bench/*; do
        [ -f "$bench" ] && [ -x "$bench" ] || continue
        name="$(basename "$bench")"
        case "$name" in
            micro_*) continue ;;
        esac
        echo "  -> $name"
        jobs_flag=""
        if "$bench" --help | grep -q '^  --jobs '; then
            jobs_flag="--jobs 2"
        fi
        "$bench" --requests 2000 $jobs_flag > "$bindir/$name.smoke.txt"
        if [ -f "$golden/$name.txt" ]; then
            diff -u "$golden/$name.txt" "$bindir/$name.smoke.txt"
        else
            echo "     (no golden: $golden/$name.txt)" >&2
        fi
    done

    # Telemetry smoke: one small cell with the epoch sampler, the op
    # tracer and the registry dump all engaged. Both JSON artifacts
    # must parse, and the end-of-run stat dump is deterministic, so
    # it diffs against a golden like the bench stdout above.
    echo "==> telemetry smoke [$preset]"
    "$bindir"/examples/simulate_trace --workload mail --system dvp \
        --requests 20000 --seed 42 --stats-interval 20000 \
        --stats-csv "$bindir/telemetry.smoke.csv" \
        --stats-json "$bindir/telemetry.smoke.json" \
        --trace-out "$bindir/telemetry.smoke.trace.json" \
        --dump-stats "$bindir/telemetry.smoke.stats.txt" \
        > /dev/null
    python3 -m json.tool "$bindir/telemetry.smoke.json" > /dev/null
    python3 -m json.tool "$bindir/telemetry.smoke.trace.json" \
        > /dev/null
    diff -u tests/golden/telemetry/simulate_trace_stats.txt \
        "$bindir/telemetry.smoke.stats.txt"

    # Multi-tenant smoke: two namespaces behind a 3:1 weighted
    # arbiter with partitioned pools. Deterministic like the rest,
    # so the whole stdout (drive-wide stats, tenant.N.* block and
    # per-tenant table) diffs against a golden.
    echo "==> multi-tenant smoke [$preset]"
    "$bindir"/examples/simulate_trace --workload mail --system dvp \
        --requests 20000 --seed 42 --tenants 2 --arbiter wrr:3,1 \
        --dvp-scope partitioned --queue-depth 8 \
        > "$bindir/multi_tenant.smoke.txt"
    diff -u tests/golden/smoke/multi_tenant.txt \
        "$bindir/multi_tenant.smoke.txt"

    # External-trace replay smoke: generate a 50k-record generic-CSV
    # fixture with awk (pure arithmetic, so the bytes are identical
    # on every host), stream it through the trace frontend
    # (DESIGN.md section 7.16) and diff against the committed golden.
    # The fixture lives at a fixed /tmp path so the "replaying
    # <path>" banner matches across presets.
    echo "==> trace replay smoke [$preset]"
    fixture=/tmp/zombie_replay_smoke.csv
    awk 'BEGIN {
        print "lba,size,op,ts"
        for (i = 0; i < 50000; i++) {
            lba = (i * 7919) % 4096
            op = (i % 4 == 3) ? "R" : "W"
            size = (i % 5 == 0) ? 12288 : 4096
            printf "%d,%d,%s,%d\n", lba, size, op, i * 3000
        }
    }' > "$fixture"
    "$bindir"/examples/simulate_trace --trace-file "$fixture" \
        --trace-format csv --version-period 3 --system dvp \
        --queue-depth 8 > "$bindir/replay_csv.smoke.txt"
    diff -u tests/golden/smoke/replay_csv.txt \
        "$bindir/replay_csv.smoke.txt"

    # Decode-ahead differential (DESIGN.md section 7.17): the
    # streamed run above uses the default prefetch pipeline, so
    # diffing an inline (--prefetch 0) run and an awkward batch
    # size against it proves the producer thread is invisible —
    # and under the tsan preset the default run doubles as the
    # data-race probe for the hand-off ring.
    echo "==> prefetch differential [$preset]"
    "$bindir"/examples/simulate_trace --trace-file "$fixture" \
        --trace-format csv --version-period 3 --system dvp \
        --queue-depth 8 --prefetch 0 \
        > "$bindir/replay_csv.noprefetch.txt"
    diff -u "$bindir/replay_csv.smoke.txt" \
        "$bindir/replay_csv.noprefetch.txt"
    "$bindir"/examples/simulate_trace --trace-file "$fixture" \
        --trace-format csv --version-period 3 --system dvp \
        --queue-depth 8 --prefetch 7 \
        > "$bindir/replay_csv.prefetch7.txt"
    diff -u "$bindir/replay_csv.smoke.txt" \
        "$bindir/replay_csv.prefetch7.txt"

    # Gzipped-input smoke: compress the fixture *in place* — the
    # byte source sniffs container magic, not file extensions, so
    # the same path now decodes through zlib and must reproduce
    # the same golden byte-for-byte (banner included).
    if command -v gzip > /dev/null 2>&1; then
        echo "==> gzip replay smoke [$preset]"
        gzip -n -c "$fixture" > "$fixture.tmp"
        mv "$fixture.tmp" "$fixture"
        "$bindir"/examples/simulate_trace --trace-file "$fixture" \
            --trace-format csv --version-period 3 --system dvp \
            --queue-depth 8 > "$bindir/replay_csv.gz.txt"
        diff -u tests/golden/smoke/replay_csv.txt \
            "$bindir/replay_csv.gz.txt"
    else
        echo "==> gzip replay smoke [$preset] (skipped: no gzip)" >&2
    fi

    # Shared-content replay smoke: an awk-generated FIU blkio file
    # whose MD5 column repeats, replayed on DVP+Dedup, so many LPNs
    # share one physical page and GC relocates shared pages. One
    # write in three draws from a 16-value alphabet that rotates
    # every 5000 records (owner chains tens of LPNs long); the rest
    # draw from 20000 values, which die, revive and get reprogrammed
    # enough to trigger GC. Fixed /tmp path, as above, so the banner
    # matches across presets.
    echo "==> FIU dedup replay smoke [$preset]"
    fiu_fixture=/tmp/zombie_replay_smoke_fiu.txt
    awk 'BEGIN {
        x = 42
        for (i = 0; i < 100000; i++) {
            x = (x * 48271) % 2147483647
            op = (i % 4 == 3) ? "R" : "W"
            if (i % 4 == 0)
                v = int(i / 5000) * 16 + x % 16
            else
                v = 1000000 + x % 20000
            printf "%d %d proc %d 8 %s 8 0 %08x%08x%08x%08x\n",
                i * 30, 1000 + i % 7, ((i * 7919) % 4096) * 8, op,
                v * 2654435 % 2147483647, v + 17, v * 97 % 65521,
                305419896
        }
    }' > "$fiu_fixture"
    "$bindir"/examples/simulate_trace --trace-file "$fiu_fixture" \
        --trace-format fiu --system dvp+dedup --queue-depth 8 \
        > "$bindir/replay_fiu_dedup.smoke.txt"
    diff -u tests/golden/smoke/replay_fiu_dedup.txt \
        "$bindir/replay_fiu_dedup.smoke.txt"

    # Scan-once grid smoke: a 2x2 sweep from the (now gzipped)
    # fixture, two cells at a time. Deterministic like everything
    # else — the whole stdout (per-cell stats and summary table)
    # diffs against a golden; under tsan this is the race probe
    # for the cell fan-out and the shared spool.
    echo "==> grid sweep smoke [$preset]"
    "$bindir"/examples/simulate_trace --trace-file "$fixture" \
        --trace-format csv --version-period 3 --system dvp \
        --grid "system=dvp,baseline;depth=1,8" --jobs 2 \
        > "$bindir/replay_grid.smoke.txt"
    grep -v '^grid wall:' "$bindir/replay_grid.smoke.txt" \
        > "$bindir/replay_grid.filtered.txt"
    diff -u tests/golden/smoke/replay_grid.txt \
        "$bindir/replay_grid.filtered.txt"
done

echo "==> all checks passed"
