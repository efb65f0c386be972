#!/usr/bin/env bash
# Paired parent/change runs of the served-plan benchmark — the procedure
# every performance claim in this repo rests on (choosing-metrics §8):
# both sides built from source with the same settings, each into its own
# target directory, run alternately (which side goes first flips every
# pair) on one seed per pair, summarized per side as median and
# quartiles, pairs won, and per-seed `plan_fingerprint` equality.
#
#   scripts/paired_bench.sh <parent-ref> <workload>[,<workload>…|all] [pairs]
#
# Both sides are built once, then the workloads run one after another
# (`all`: every workload the benchmark lists), each with its own logs
# and its own summary block at the end.
#
# The parent side is `git archive <parent-ref>` unpacked into a fresh
# directory under ${TMPDIR:-/tmp} (removed on exit); the change side is
# this checkout as it stands (uncommitted edits included). The parent
# must sit *outside* the checkout: cargo looks for `.cargo/config.toml`
# from the working directory upwards, so a parent unpacked anywhere below
# the repository root would be built with the checkout's flags — its
# SIMD tier included — and the run would measure the change against
# itself. Which config files each side's build reads is printed with the
# result. Build outputs and logs stay under target/paired_bench (a run
# replaces the logs of the workloads it names, no others). Run
# length comes from BENCHMARK.json, seeds are 11, 12, …; default 10
# pairs. Keep the machine otherwise idle: the reference host has two
# cores and two clock speeds ~25 % apart, which is why single runs are
# never compared.
#
# A gain is claimed only when the change wins at least nine tenths of
# the pairs and the medians differ by more than the parent's own
# interquartile range; a metric that is merely "not worse" must stay
# within its bound in BENCHMARK.json. The script prints the numbers both
# rules need; it does not edit anything.

set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: $0 <parent-ref> <workload>[,<workload>...|all] [pairs]" >&2
    exit 2
fi
PARENT_REF="$1"
WORKLOADS="${2//,/ }"
PAIRS="${3:-10}"
case "$PAIRS" in
    ''|*[!0-9]*|0) echo "pairs must be a positive integer, got '$PAIRS'" >&2; exit 2 ;;
esac

ROOT="$(git rev-parse --show-toplevel)"
OUT="$ROOT/target/paired_bench"
SECONDS_PER_RUN="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$ROOT/BENCHMARK.json")"
FIRST_SEED=11
# Metric name and which direction is better, as in BENCHMARK.json.
METRICS="setup_s:lower req_per_s:higher plan_ms_p50:lower rss_peak_mb:lower"

git -C "$ROOT" rev-parse --verify --quiet "$PARENT_REF^{commit}" >/dev/null \
    || { echo "unknown parent ref '$PARENT_REF'" >&2; exit 2; }

# RUSTFLAGS replaces (does not extend) the flags of every config file,
# on both sides alike.
if [ -n "${RUSTFLAGS:-}${CARGO_ENCODED_RUSTFLAGS:-}" ]; then
    echo "unset RUSTFLAGS: it overrides each side's .cargo/config.toml, so both would build alike" >&2
    exit 2
fi

PARENT="$(mktemp -d "${TMPDIR:-/tmp}/paired_bench_parent.XXXXXX")"
trap 'rm -rf "$PARENT"' EXIT
git -C "$ROOT" archive "$PARENT_REF" | tar -x -C "$PARENT"

# configs <source root>: the cargo config files a build started there
# reads — one per directory from the root up to /, then CARGO_HOME's —
# each marked when it sets compiler flags.
configs() {
    local dir f home found=""
    dir="$(cd "$1" && pwd -P)"
    home="${CARGO_HOME:-$HOME/.cargo}/config.toml"
    while :; do
        for f in "$dir/.cargo/config.toml" "$dir/.cargo/config"; do
            if [ -f "$f" ]; then found="$found $f"; fi
        done
        if [ "$dir" = / ]; then break; fi
        dir="$(dirname "$dir")"
    done
    if [ -f "$home" ] && [ "${found#*"$home"}" = "$found" ]; then found="$found $home"; fi
    for f in $found; do
        if grep -q rustflags "$f"; then printf ' %s (sets rustflags)' "$f"; else printf ' %s' "$f"; fi
    done
    if [ -z "$found" ]; then printf ' none'; fi
    echo
}

# build <source root> <target dir>: the benchmark is its own package and
# builds the crates it measures from the tree it sits in.
build() {
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}
echo "building parent ($PARENT_REF) and change (working tree)..." >&2
build "$PARENT" "$OUT/target-parent"
build "$ROOT" "$OUT/target-change"

# The change side's benchmark names the workloads (one per line, name
# first); a misspelt one must fail here, not after the runs before it.
KNOWN="$("$OUT/target-change/release/vmr-benchmark" --list | cut -f1)"
if [ "$WORKLOADS" = all ]; then WORKLOADS="$KNOWN"; fi
for WORKLOAD in $WORKLOADS; do
    grep -qx -- "$WORKLOAD" <<<"$KNOWN" \
        || { echo "unknown workload '$WORKLOAD'; the benchmark lists: ${KNOWN//$'\n'/ }" >&2; exit 2; }
done

# run <side> <source root> <seed>: one benchmark run of $WORKLOAD, output
# kept whole.
run() {
    local side="$1" root="$2" seed="$3"
    (cd "$root" && "$OUT/target-$side/release/vmr-benchmark" --workload "$WORKLOAD" \
        --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0) \
        >"$LOGS/$side-$seed.log" 2>&1 \
        || { echo "$side run failed on seed $seed; see $LOGS/$side-$seed.log" >&2; exit 1; }
}
for WORKLOAD in $WORKLOADS; do
    LOGS="$OUT/logs/$WORKLOAD"
    rm -rf "$LOGS"
    mkdir -p "$LOGS"
    for ((i = 0; i < PAIRS; i++)); do
        seed=$((FIRST_SEED + i))
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        echo "$WORKLOAD pair $((i + 1))/$PAIRS, seed $seed: $order" >&2
        for side in $order; do
            if [ "$side" = parent ]; then run parent "$PARENT" "$seed"; else run change "$ROOT" "$seed"; fi
        done
    done
done

# value <log> <metric>: the metric's value on the run's JSON result line.
value() {
    sed -n 's/.*"'"$2"'":{"value":\([-+0-9.eE]*\).*/\1/p' "$1" | tail -n 1
}

echo
echo "pairs: $PAIRS, ${SECONDS_PER_RUN}s runs, parent $PARENT_REF"
echo "cargo config files, parent:$(configs "$PARENT")"
echo "cargo config files, change:$(configs "$ROOT")"

# summary: one block for $WORKLOAD from its logs.
summary() {
    local LOGS="$OUT/logs/$WORKLOAD" entry metric better i seed line side log failed attempted same
    echo
    echo "workload $WORKLOAD"
    for entry in $METRICS; do
        metric="${entry%%:*}"
        better="${entry##*:}"
        for ((i = 0; i < PAIRS; i++)); do
            seed=$((FIRST_SEED + i))
            echo "$(value "$LOGS/parent-$seed.log" "$metric") $(value "$LOGS/change-$seed.log" "$metric")"
        done | awk -v metric="$metric" -v better="$better" '
            # Quartile by linear interpolation over the sorted sample.
            function quantile(v, n, q,    pos, lo, frac) {
                pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
                return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
            }
            NF == 2 { n++; p[n] = $1; c[n] = $2
                      if (better == "lower" ? $2 < $1 : $2 > $1) wins++
                      else if ($2 != $1) losses++ }
            END {
                if (n == 0) { printf "%-12s no values found\n", metric; exit }
                sorted(p, ps, n); sorted(c, cs, n)
                pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
                printf "%-12s parent %10.3f [%10.3f, %10.3f]   change %10.3f [%10.3f, %10.3f]   %+6.1f %% vs parent median   won %d lost %d of %d   parent IQR %.3f\n",
                    metric, pm, quantile(ps, n, 0.25), quantile(ps, n, 0.75),
                    cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75),
                    pm == 0 ? 0 : 100 * (cm - pm) / pm, wins, losses, n, iqr
            }'
    done

    echo
    echo "checks failed / attempted and plan_fingerprint, per seed:"
    for ((i = 0; i < PAIRS; i++)); do
        seed=$((FIRST_SEED + i))
        line=""
        for side in parent change; do
            log="$LOGS/$side-$seed.log"
            failed="$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$log" | tail -n 1)"
            attempted="$(sed -n 's/.*"attempted":\([0-9]*\).*/\1/p' "$log" | tail -n 1)"
            line="$line  $side $failed/$attempted"
        done
        if [ "$(grep '^plan_fingerprint' "$LOGS/parent-$seed.log")" = \
             "$(grep '^plan_fingerprint' "$LOGS/change-$seed.log")" ]; then
            same="equal"
        else
            same="DIFFERENT"
        fi
        echo "  seed $seed:$line  fingerprints $same"
    done
    echo "logs: $LOGS"
}
for WORKLOAD in $WORKLOADS; do summary; done
