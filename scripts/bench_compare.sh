#!/usr/bin/env bash
# Compare a fresh BENCH_bnb.json against the committed baseline and fail
# on >25% regression of the headline deterministic-engine speedup.
#
# The headline metric is `speedup_vs_serial` of the deterministic engine
# on the longest-running model (line4-dp — the sub-millisecond fig1 cells
# are too noisy to gate on), taken at the largest benchmarked thread
# count that does not exceed EITHER file's hardware_threads: speedups
# measured with more threads than cores are scheduling artifacts, and
# the baseline may have been produced on a smaller machine than CI.
# Remaining models/threads are reported informationally.
#
# usage: scripts/bench_compare.sh <baseline.json> <current.json>
set -euo pipefail

BASELINE="${1:-BENCH_bnb.json}"
CURRENT="${2:-target/figures/BENCH_bnb.json}"
HEADLINE_MODEL="line4-dp"
MAX_REGRESSION_PCT=25

for f in "$BASELINE" "$CURRENT"; do
    [[ -s "$f" ]] || { echo "bench_compare: missing or empty $f" >&2; exit 1; }
done

hw() { # hw <file>
    sed -n 's/.*"hardware_threads": \([0-9][0-9]*\).*/\1/p' "$1" | head -1
}

speedup() { # speedup <file> <model> <engine> <threads> <factor>
    # Cells are keyed by (model, engine, threads, factor); a missing cell
    # yields the empty string.
    sed -n 's/.*"model": "'"$2"'", "engine": "'"$3"'", "threads": '"$4"', "factor": "'"$5"'", .*"speedup_vs_serial": \([0-9.]*\).*/\1/p' "$1" | head -1
}

hw_base="$(hw "$BASELINE")"
hw_cur="$(hw "$CURRENT")"
[[ -n "$hw_base" && -n "$hw_cur" ]] || { echo "bench_compare: hardware_threads missing" >&2; exit 1; }
cap=$(( hw_base < hw_cur ? hw_base : hw_cur ))

T=1
for t in 2 4 8; do
    (( t <= cap )) && T="$t"
done

echo "bench_compare: baseline=$BASELINE (hw $hw_base) current=$CURRENT (hw $hw_cur), gating deterministic@${T}t on $HEADLINE_MODEL"

echo "  model      threads  factor  baseline  current"
for model in fig1-dp fig1-pop line4-dp; do
    for t in 1 2 4 8; do
        for factor in dense sparse; do
            b="$(speedup "$BASELINE" "$model" deterministic "$t" "$factor")"
            c="$(speedup "$CURRENT" "$model" deterministic "$t" "$factor")"
            [[ -n "$b" && -n "$c" ]] || continue
            if (( t > cap )); then
                # Oversubscribed cells are scheduling noise, not engine
                # performance; comparing them invites phantom regressions.
                printf '  %-10s %7s  %-6s  skipped: %st exceeds hardware_threads (baseline %s, current %s)\n' \
                    "$model" "$t" "$factor" "$t" "$hw_base" "$hw_cur"
            else
                printf '  %-10s %7s  %-6s  %8s  %7s\n' "$model" "$t" "$factor" "$b" "$c"
            fi
        done
    done
done

# The production default is the sparse backend, so the regression gate
# runs on the sparse headline cell.
base_headline="$(speedup "$BASELINE" "$HEADLINE_MODEL" deterministic "$T" sparse)"
cur_headline="$(speedup "$CURRENT" "$HEADLINE_MODEL" deterministic "$T" sparse)"
[[ -n "$base_headline" && -n "$cur_headline" ]] \
    || { echo "bench_compare: headline cell ($HEADLINE_MODEL deterministic@$T sparse) missing" >&2; exit 1; }

# current >= baseline * (1 - MAX_REGRESSION_PCT/100), in awk for the floats.
if awk "BEGIN { exit !($cur_headline >= $base_headline * (1 - $MAX_REGRESSION_PCT / 100.0)) }"; then
    echo "bench_compare OK: headline det-engine speedup $cur_headline vs baseline $base_headline (limit -${MAX_REGRESSION_PCT}%)"
else
    echo "bench_compare FAILED: headline det-engine speedup regressed >${MAX_REGRESSION_PCT}%: $cur_headline vs baseline $base_headline" >&2
    exit 1
fi
