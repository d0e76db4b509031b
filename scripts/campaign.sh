#!/usr/bin/env bash
# An alternating parent/change campaign over the benchmark, as data
# (ROADMAP hygiene ii).
#
#   scripts/campaign.sh [--latency <runs>] <parent-dir> <change-dir> <pairs> <seed> \
#       [workload…] > results/campaigns/PR<n>.json
#
# With `--latency <runs>`, first `runs` times per side: one
# `pipeline_microbench --procs 2 --latency` in each checkout, the side that
# goes first alternating, each side's bin built in its own checkout (the
# same source builds a fast or a slow binary by build directory, so a
# change to `crates/msgpass` is checked against its parent this way). Each
# run is one record with the p10 (ns) of three `--latency` rows: the raw
# cache-line ping-pong its threads read, the `Comm` 8-byte ping-pong and
# the 8-byte allreduce. `pairs` may be 0 to run only these.
#
# Per workload (default: every workload of the change's BENCHMARK.json),
# `pairs` times: one `benchmark/run.sh --workload W --seed N --seconds 15
# --trace 0` in each checkout, the side that goes first alternating from
# pair to pair. Each checkout's own run.sh builds it in its own directory.
# Standard output is a JSON array with one record per run, in the order
# run (so records 2k and 2k+1 of a workload are pair k), each run's result
# reduced to workload, seed, side, the three end-to-end metrics and
# `failed`. Progress goes to standard error; the exit status is non-zero
# if a run gave no result or did not verify.
set -euo pipefail

latency=0
if [ "${1:-}" = --latency ]; then
    latency=${2:?--latency needs a run count}
    shift 2
fi
if [ $# -lt 4 ]; then
    echo "usage: $0 [--latency <runs>] <parent-dir> <change-dir> <pairs> <seed> [workload…]" >&2
    exit 2
fi
parent=$1 change=$2 pairs=$3 seed=$4
shift 4
if [ $# -eq 0 ]; then
    set -- $(sed -n '/"workloads"/,/\]/s/.*"name": "\(.*\)".*/\1/p' "$change/BENCHMARK.json")
fi
# A shared target directory would make the two sides one build.
unset CARGO_TARGET_DIR

bad=0
sep='['

# The number under `"<name>":{"value":` in the result line on stdin.
metric() {
    sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

# run <side> <dir> <workload>: one run, one record.
run() {
    local line failed
    line=$(bash "$2/benchmark/run.sh" --workload "$3" --seed "$seed" --seconds 15 --trace 0 \
        2>/dev/null | tail -n 1) || true
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")
    if [ -z "$failed" ] || [[ $line != *'"correct":true'* ]]; then
        echo "campaign: $3 on $1 gave no verified result: $line" >&2
        bad=1
        return
    fi
    printf '%s\n{"workload":"%s","seed":%s,"side":"%s","wall_s":%s,"wall_serial_s":%s,"setup_s":%s,"failed":%s}' \
        "$sep" "$3" "$seed" "$1" \
        "$(metric wall_s <<<"$line")" "$(metric wall_serial_s <<<"$line")" \
        "$(metric setup_s <<<"$line")" "$failed"
    sep=','
}

# The p10 column of the `--latency` row named $1, from the table on stdin.
row_p10() {
    awk -F'|' -v row="$1" '{ name = $1; gsub(/^ +| +$/, "", name) }
        name == row { gsub(/ /, "", $3); print $3 }'
}

# latency_run <side> <dir>: one `--latency` run, one record.
latency_run() {
    local table raw pingpong allreduce
    table=$("$2/target/release/pipeline_microbench" --procs 2 --latency 2>&1 >/dev/null) || true
    raw=$(row_p10 'raw line ping-pong' <<<"$table")
    pingpong=$(row_p10 'Comm 8 B ping-pong' <<<"$table")
    allreduce=$(row_p10 'allreduce 8 B' <<<"$table")
    if [ -z "$raw" ] || [ -z "$pingpong" ] || [ -z "$allreduce" ]; then
        echo "campaign: --latency on $1 gave no table" >&2
        bad=1
        return
    fi
    printf '%s\n{"probe":"latency","side":"%s","raw_p10_ns":%s,"pingpong_p10_ns":%s,"allreduce_p10_ns":%s}' \
        "$sep" "$1" "$raw" "$pingpong" "$allreduce"
    sep=','
}

if ((latency > 0)); then
    for dir in "$parent" "$change"; do
        echo "campaign: building pipeline_microbench in $dir" >&2
        (cd "$dir" && cargo build --release --offline -q -p gv-bench --bin pipeline_microbench) >&2
    done
fi
for ((run = 0; run < latency; run++)); do
    echo "campaign: --latency $((run + 1))/$latency" >&2
    if ((run % 2 == 0)); then
        latency_run parent "$parent"
        latency_run change "$change"
    else
        latency_run change "$change"
        latency_run parent "$parent"
    fi
done

for workload in "$@"; do
    for ((pair = 0; pair < pairs; pair++)); do
        echo "campaign: $workload pair $((pair + 1))/$pairs" >&2
        if ((pair % 2 == 0)); then
            run parent "$parent" "$workload"
            run change "$change" "$workload"
        else
            run change "$change" "$workload"
            run parent "$parent" "$workload"
        fi
    done
done
if [ "$sep" = '[' ]; then
    printf '['
fi
printf '\n]\n'
exit $bad
