#!/usr/bin/env bash
# A/B run of one benchmark workload: the benchmark package (benchsuite/)
# built at PARENT_REF against the same package built from this checkout.
#
#   scripts/bench_ab.sh PARENT_REF WORKLOAD PAIRS [SECONDS]
#
# PARENT_REF is checked out into a temporary `git worktree` and built
# with its own CARGO_TARGET_DIR; this checkout builds into its usual
# benchmark target directory. The script then runs PAIRS pairs of
# untraced runs of WORKLOAD (large-batch, paper-corpus or service-mixed),
# each SECONDS long (default 20). Pair k runs both sides with seed
# SEED+k (SEED defaults to 300), so the pairs cover PAIRS consecutive
# seeds, and the side that runs first alternates from pair to pair. Runs
# start in a temporary directory, so their scratch files (.bench_tmp/)
# never land in the tree.
#
# Output: one line per end-to-end metric of BENCHMARK.json — the parent
# and change medians, their ratio (change / parent) and the pairs the
# change won in the metric's better direction. Exits 1 if any run
# reports `"correct": false` or `failed` > 0 (or does not finish), 2 on
# bad arguments.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_REF WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
PARENT_REF=$1
WORKLOAD=$2
PAIRS=$3
SECONDS_PER_RUN=${4:-20}
SEED=${SEED:-300}
case "$PAIRS$SECONDS_PER_RUN$SEED" in
    *[!0-9]*) echo "PAIRS, SECONDS and SEED must be non-negative integers" >&2; exit 2 ;;
esac
[ "$PAIRS" -ge 1 ] || { echo "PAIRS must be at least 1" >&2; exit 2; }

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
PARENT_TREE="$WORK/parent"

cleanup() {
    git -C "$ROOT" worktree remove --force "$PARENT_TREE" >/dev/null 2>&1 || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building the parent ($PARENT_REF) =="
git -C "$ROOT" worktree add --detach --quiet "$PARENT_TREE" "$PARENT_REF"
CARGO_TARGET_DIR="$WORK/target-parent" cargo build --release --offline --quiet \
    --manifest-path "$PARENT_TREE/benchsuite/Cargo.toml"
PARENT_BIN="$WORK/target-parent/release/coma-benchsuite"

echo "== building the change ($ROOT) =="
CHANGE_TARGET="${CARGO_TARGET_DIR:-$ROOT/benchsuite/target}"
CARGO_TARGET_DIR="$CHANGE_TARGET" cargo build --release --offline --quiet \
    --manifest-path "$ROOT/benchsuite/Cargo.toml"
CHANGE_BIN="$CHANGE_TARGET/release/coma-benchsuite"

mkdir -p "$WORK/runs"
status=0

# run SIDE PAIR: one untraced run; appends its result line to SIDE.jsonl.
run() {
    local side=$1 pair=$2 bin seed line
    if [ "$side" = parent ]; then bin=$PARENT_BIN; else bin=$CHANGE_BIN; fi
    seed=$((SEED + pair))
    line=$(cd "$WORK/runs" && "$bin" --workload "$WORKLOAD" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1) || true
    case "$line" in
        '{"correct": true, '*'"failed": 0,'*) ;;
        *)
            echo "FAIL: $side run (pair $pair, seed $seed): ${line:-no result line}" >&2
            status=1
            ;;
    esac
    printf '%s\n' "$line" >> "$WORK/$side.jsonl"
    echo "pair $pair seed $seed $side: $line"
}

for ((pair = 0; pair < PAIRS; pair++)); do
    if ((pair % 2 == 0)); then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
done

# value METRIC FILE: the metric's value on every line of FILE, in order.
value() {
    sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p" "$2"
}

# median: the median of the numbers on stdin, to 6 significant digits.
median() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "nan"; exit }
        printf "%.6g\n", (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
    }'
}

echo
echo "== $WORKLOAD: $PAIRS pairs, ${SECONDS_PER_RUN}s windows, seeds $SEED..$((SEED + PAIRS - 1)) =="
printf '%-18s %14s %14s %8s %6s\n' metric parent change ratio won
# The end-to-end metrics and their better direction, from BENCHMARK.json.
awk '
    /"end_to_end"/ { in_block = 1 }
    in_block && /"per_layer"/ { in_block = 0 }
    in_block && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    in_block && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$ROOT/BENCHMARK.json" | while read -r metric better; do
    parent_values=$(value "$metric" "$WORK/parent.jsonl")
    change_values=$(value "$metric" "$WORK/change.jsonl")
    parent_median=$(printf '%s\n' "$parent_values" | median)
    change_median=$(printf '%s\n' "$change_values" | median)
    won=$(paste -d ' ' <(printf '%s\n' "$parent_values") <(printf '%s\n' "$change_values") |
        awk -v better="$better" '
            NF == 2 && ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) { n++ }
            END { print n + 0 }
        ')
    ratio=$(awk -v p="$parent_median" -v c="$change_median" \
        'BEGIN { if (p + 0 == 0) print "nan"; else printf "%.3f", c / p }')
    printf '%-18s %14s %14s %8s %3s/%s\n' "$metric" "$parent_median" "$change_median" \
        "$ratio" "$won" "$PAIRS"
done

exit "$status"
