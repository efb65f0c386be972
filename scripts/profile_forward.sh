#!/usr/bin/env bash
# Profile the policy forward pass per precision tier.
#
# Runs the served-plan benchmark (benchmark/README.md) under `perf
# record` — workload `medium_agent_f64` for the exact tier,
# `small_pair_f32` for the fast one, untraced (`--trace 0`), so the
# profile is the daemon's own request path with core/nn doing ~99 % of
# the work — and, when a flamegraph toolchain is available, renders one
# SVG per precision: the side-by-side that shows where the f32 fast path
# actually spends its time (GEMM vs softmax vs layer norm) compared to
# the f64 exact path.
#
#   scripts/profile_forward.sh [f64|f32|both] [OUTDIR]
#
# Defaults: both tiers, output under target/profile/. Degrades
# gracefully: without `perf` it falls back to a plain benchmark run
# (which prints every metric); without `flamegraph`/`inferno` it leaves
# the perf.data for manual inspection (`perf report -i <file>`).

set -euo pipefail

TIER="${1:-both}"
OUTDIR="${2:-target/profile}"
case "$TIER" in
    f64|f32|both) ;;
    *) echo "usage: $0 [f64|f32|both] [OUTDIR]" >&2; exit 2 ;;
esac

ROOT="$(git rev-parse --show-toplevel)"
cd "$ROOT"
mkdir -p "$OUTDIR"
SECONDS_PER_RUN="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

# The benchmark is its own package; build it once, outside perf, into a
# target directory of its own so the profile holds no compiler frames.
BENCH_TARGET="$ROOT/target/profile-build"
CARGO_TARGET_DIR="$BENCH_TARGET" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
BENCH="$BENCH_TARGET/release/vmr-benchmark"

workload_for() {
    case "$1" in
        f64) echo "medium_agent_f64" ;;
        f32) echo "small_pair_f32" ;;
    esac
}

run_one() {
    local tier="$1"
    local workload
    workload="$(workload_for "$tier")"
    local perfdata="$OUTDIR/forward_${tier}.perf.data"
    local svg="$OUTDIR/forward_${tier}.svg"
    local run=("$BENCH" --workload "$workload" --seed 7 --seconds "$SECONDS_PER_RUN" --trace 0)

    echo "==> $tier tier (workload: $workload)"
    if command -v perf >/dev/null 2>&1; then
        # perf may be installed but unusable (unprivileged container,
        # perf_event_paranoid); probe once and fall back cleanly.
        if perf stat -e task-clock true >/dev/null 2>&1; then
            perf record -g --call-graph dwarf -o "$perfdata" -- "${run[@]}" \
                || { echo "perf record failed for $tier" >&2; return 1; }
            echo "    perf data: $perfdata"
            if command -v flamegraph >/dev/null 2>&1; then
                flamegraph --perfdata "$perfdata" -o "$svg" \
                    && echo "    flamegraph: $svg"
            elif command -v inferno-collapse-perf >/dev/null 2>&1; then
                perf script -i "$perfdata" | inferno-collapse-perf \
                    | inferno-flamegraph > "$svg" \
                    && echo "    flamegraph: $svg"
            else
                echo "    no flamegraph/inferno on PATH; inspect with:" \
                     "perf report -i $perfdata"
            fi
            return 0
        fi
        echo "    perf present but cannot count events here" \
             "(perf_event_paranoid?); timing only"
    else
        echo "    perf not found; timing only"
    fi
    # Fallback: still produce numbers so the script is useful anywhere —
    # the benchmark prints every metric by name, unit and sample count.
    "${run[@]}"
}

if [ "$TIER" = "both" ]; then
    run_one f64
    run_one f32
else
    run_one "$TIER"
fi
echo "done; artifacts in $OUTDIR"
