#!/usr/bin/env bash
# Alternating-pair benchmark runner with a host-noise log.
#
#   scripts/bench_pairs.sh <parent-bin> <change-bin> <workload> <pairs>
#
# Runs `<bin> --workload <workload> --seed $SEED --seconds $SECONDS_PER_RUN
# --trace 0` for both binaries, <pairs> times, alternating which side
# runs first (odd pairs start with the parent, even pairs with the
# change), and prints one tab-separated line per run: the five end-to-end
# metrics from the run's last stdout line (the JSON result object), its
# exit code, and what the rest of the host did meanwhile, read from
# /proc without changing anything:
#
#   steal_pct   steal ticks / all CPU ticks over the run (/proc/stat),
#   iowait_pct  the same for iowait,
#   load1       the 1-minute load average at the end of the run
#               (/proc/loadavg).
#
# A summary follows: per side, the median and IQR of each metric, and
# the number of pairs in which the change's throughput_per_s is higher.
# Environment: SEED (default 7), SECONDS_PER_RUN (default 30), and LOG,
# a file that also receives every line (default: none).
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 <parent-bin> <change-bin> <workload> <pairs>" >&2
    exit 2
fi
PARENT=$1
CHANGE=$2
WORKLOAD=$3
PAIRS=$4
SEED=${SEED:-7}
SECONDS_PER_RUN=${SECONDS_PER_RUN:-30}
LOG=${LOG:-/dev/null}
METRICS="setup_s throughput_per_s latency_p50_ms peak_rss_mb success_rate"

# Prints "<total ticks> <iowait ticks> <steal ticks>" of the aggregate
# cpu line (fields: user nice system idle iowait irq softirq steal ...).
cpu_ticks() {
    awk '$1 == "cpu" { t = 0; for (i = 2; i <= NF; i++) t += $i; print t, $6, $9; exit }' /proc/stat
}

# Prints the value of metric $2 in result JSON $1, or "nan".
metric() {
    local v
    v=$(printf '%s' "$1" | sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p")
    printf '%s' "${v:-nan}"
}

emit() {
    printf '%s\n' "$1"
    printf '%s\n' "$1" >>"$LOG"
}

ROWS=$(mktemp)
trap 'rm -f "$ROWS"' EXIT

emit "$(printf 'pair\tside\t%s\texit\tsteal_pct\tiowait_pct\tload1' "${METRICS// /$'\t'}")"
for pair in $(seq 1 "$PAIRS"); do
    order="parent change"
    [ $((pair % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        bin=$PARENT
        [ "$side" = change ] && bin=$CHANGE
        read -r t0 io0 st0 < <(cpu_ticks)
        set +e
        out=$("$bin" --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null)
        code=$?
        set -e
        read -r t1 io1 st1 < <(cpu_ticks)
        load1=$(cut -d' ' -f1 /proc/loadavg)
        json=$(printf '%s\n' "$out" | tail -n 1)
        row="$pair"$'\t'"$side"
        for m in $METRICS; do
            row+=$'\t'"$(metric "$json" "$m")"
        done
        ticks=$((t1 - t0))
        [ "$ticks" -gt 0 ] || ticks=1
        row+=$'\t'"$code"
        row+=$'\t'"$(awk -v s=$((st1 - st0)) -v t="$ticks" 'BEGIN { printf "%.2f", 100 * s / t }')"
        row+=$'\t'"$(awk -v s=$((io1 - io0)) -v t="$ticks" 'BEGIN { printf "%.2f", 100 * s / t }')"
        row+=$'\t'"$load1"
        emit "$row"
        printf '%s\n' "$row" >>"$ROWS"
    done
done

# Summary: column 3.. are the metrics in $METRICS order.
col=3
for m in $METRICS; do
    for side in parent change; do
        emit "$(awk -F'\t' -v side="$side" -v c="$col" -v m="$m" '
            $2 == side { v[n++] = $c }
            END {
                # insertion sort; n is small
                for (i = 1; i < n; i++) { x = v[i]; j = i - 1
                    while (j >= 0 && v[j] + 0 > x + 0) { v[j + 1] = v[j]; j-- }
                    v[j + 1] = x }
                printf "%s\t%s\tmedian %s\tIQR [%s, %s]\n", m, side,
                    pct(v, n, 50), pct(v, n, 25), pct(v, n, 75)
            }
            function pct(v, n, p,   r, lo, f) {
                if (n == 0) return "nan"
                r = (p / 100) * (n - 1); lo = int(r); f = r - lo
                if (lo + 1 >= n) return v[lo]
                return v[lo] + f * (v[lo + 1] - v[lo])
            }' "$ROWS")"
    done
    col=$((col + 1))
done
emit "$(awk -F'\t' '
    $2 == "parent" { p[$1] = $4 }
    $2 == "change" { c[$1] = $4 }
    END { for (k in p) { n++; if (c[k] + 0 > p[k] + 0) w++ }
          printf "throughput_per_s: change higher in %d of %d pairs\n", w, n }' "$ROWS")"
