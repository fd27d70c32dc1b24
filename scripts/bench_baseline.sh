#!/usr/bin/env sh
# Records the perf trajectory of the parallel/cached hot kernels: runs the
# microbench suite in --json mode, which writes BENCH_visibility.json,
# BENCH_codebook.json, BENCH_codec.json and BENCH_session.json at the
# repository root (median ns per iteration, host thread budget, git
# revision). The codec report times the reused-arena encoder and decoder
# and the GOP-batched encode; the session report times the frame loop end
# to end. Commit the refreshed files alongside perf-relevant
# changes so regressions are visible in review as a plain diff.
#
# After the run, the fresh codec medians are compared against the
# previously committed BENCH_codec.json: any tracked kernel slower by more
# than VOLCAST_BENCH_TOLERANCE percent (default 25) fails the script, so a
# codec perf regression cannot be recorded silently. The comparison is
# skipped (with a warning) when the baseline was recorded with a different
# host thread budget — those medians are not comparable.
#
# The two end-to-end throughput benches are ratcheted the same way: the
# campus bin's users_per_sec (BENCH_campus.json) and the server bin's
# client_frames_per_sec (BENCH_server.json) must not drop more than
# VOLCAST_BENCH_TOLERANCE percent below their committed baselines (note
# the inverted direction: throughput regresses *downward*). Same
# host_threads skip applies.
#
# Usage: scripts/bench_baseline.sh [extra args passed to the bench binary]
# Knobs: VOLCAST_BENCH_SAMPLES   (default 20 timed samples per bench)
#        VOLCAST_BENCH_TOLERANCE (default 25, percent regression tolerated)

set -eu

export CARGO_NET_OFFLINE=true

cd "$(dirname "$0")/.."

# The scaling benches need >= 4 hardware threads for their _t4 records;
# on smaller hosts the binary skips those records (a 4-worker run on a
# 1-core box measures oversubscription, not scaling). Warn here too so the
# skip is visible even if the bench output scrolls by.
host_threads=$(nproc 2>/dev/null || echo 1)
echo "host_threads=${host_threads}"
if [ "${host_threads}" -lt 4 ]; then
    echo "WARNING: host has ${host_threads} thread(s) < 4; _t4 bench records will be skipped." >&2
    echo "WARNING: do not commit BENCH_*.json from this host over baselines that have _t4 rows." >&2
fi

# Stash the committed baselines before the benches overwrite them.
tmpdir=$(mktemp -d)
trap 'rm -rf "${tmpdir}"' EXIT
baseline=""
if [ -f BENCH_codec.json ]; then
    baseline="${tmpdir}/codec.json"
    cp BENCH_codec.json "${baseline}"
fi
for f in BENCH_campus.json BENCH_server.json; do
    [ -f "$f" ] && cp "$f" "${tmpdir}/$f"
done

cargo bench -p volcast-bench --bench microbench -- --json "$@"

# --- End-to-end throughput benches (campus + session server). ----------
cargo build --release -p volcast-bench --bin campus --bin server
./target/release/campus
./target/release/server

tolerance="${VOLCAST_BENCH_TOLERANCE:-25}"
threads_of() {
    sed -n 's/.*"host_threads":\([0-9]*\).*/\1/p' "$1" | head -1
}
field_of() {
    sed -n 's/.*"'"$2"'":\([0-9.]*\).*/\1/p' "$1" | head -1
}

# Throughput ratchet: fresh $2 in $1 must not drop more than tolerance %
# below the stashed baseline (higher is better — inverted vs the codec
# latency check). Skipped when there is no baseline, the baseline predates
# the field, or host_threads differ.
ratchet_throughput() {
    report="$1"
    metric="$2"
    old="${tmpdir}/${report}"
    if [ ! -f "${old}" ]; then
        echo "NOTE: no committed ${report}; recording fresh baseline." >&2
        return 0
    fi
    old_v=$(field_of "${old}" "${metric}")
    new_v=$(field_of "${report}" "${metric}")
    if [ -z "${old_v}" ] || [ -z "${new_v}" ]; then
        echo "NOTE: ${report} baseline predates ${metric}; skipping ratchet." >&2
        return 0
    fi
    old_t=$(threads_of "${old}")
    new_t=$(threads_of "${report}")
    if [ -z "${old_t}" ] || [ "${old_t}" != "${new_t}" ]; then
        echo "WARNING: ${report} baseline host_threads=${old_t:-unset} != current ${new_t}; skipping ratchet." >&2
        return 0
    fi
    awk -v old="${old_v}" -v new="${new_v}" -v tol="${tolerance}" \
        -v report="${report}" -v metric="${metric}" '
        BEGIN {
            floor = old * (1 - tol / 100)
            if (new < floor) {
                printf "  FAIL: %s %s %.1f < %.1f allowed (baseline %.1f - %s%%)\n", report, metric, new, floor, old, tol
                exit 1
            }
            printf "  ok:   %s %s %.1f (baseline %.1f)\n", report, metric, new, old
        }' || {
        echo "ERROR: ${report} ${metric} regressed more than ${tolerance}% vs the committed baseline." >&2
        echo "Fix the regression, or raise VOLCAST_BENCH_TOLERANCE if the slowdown is intended." >&2
        exit 1
    }
}

echo "throughput regression check (tolerance ${tolerance}%):"
ratchet_throughput BENCH_campus.json users_per_sec
ratchet_throughput BENCH_server.json client_frames_per_sec

[ -n "${baseline}" ] || exit 0

# "name median_ns" per bench record (the reports are single-line JSON from
# our own writer, so one record per '{' split is reliable).
medians() {
    tr '{' '\n' <"$1" | awk -F'"' '
        /"name":/ {
            name = ""
            for (i = 1; i <= NF; i++) if ($i == "name") name = $(i + 2)
            if (name != "" && match($0, /"median_ns":[0-9.]+/))
                print name, substr($0, RSTART + 12, RLENGTH - 12)
        }'
}
threads_of() {
    sed -n 's/.*"host_threads":\([0-9]*\).*/\1/p' "$1" | head -1
}

tolerance="${VOLCAST_BENCH_TOLERANCE:-25}"
old_threads=$(threads_of "${baseline}")
new_threads=$(threads_of BENCH_codec.json)
if [ "${old_threads}" != "${new_threads}" ]; then
    echo "WARNING: baseline host_threads=${old_threads} != current ${new_threads}; skipping codec regression check." >&2
    exit 0
fi

echo "codec regression check (tolerance ${tolerance}%):"
if ! {
    medians "${baseline}" | sed 's/^/old /'
    medians BENCH_codec.json | sed 's/^/new /'
} | awk -v tol="${tolerance}" '
    $1 == "old" { old[$2] = $3 }
    $1 == "new" { new[$2] = $3 }
    END {
        fail = 0
        for (n in new) {
            if (!(n in old)) { printf "  new:  %s median %.0f ns (no baseline)\n", n, new[n]; continue }
            limit = old[n] * (1 + tol / 100)
            if (new[n] > limit) {
                printf "  FAIL: %s median %.0f ns > %.0f ns allowed (baseline %.0f ns + %s%%)\n", n, new[n], limit, old[n], tol
                fail = 1
            } else {
                printf "  ok:   %s median %.0f ns (baseline %.0f ns)\n", n, new[n], old[n]
            }
        }
        exit fail
    }'; then
    echo "ERROR: codec kernel(s) regressed more than ${tolerance}% vs the committed BENCH_codec.json." >&2
    echo "Fix the regression, or raise VOLCAST_BENCH_TOLERANCE if the slowdown is intended." >&2
    exit 1
fi
