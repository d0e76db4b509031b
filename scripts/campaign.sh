#!/usr/bin/env bash
# An alternating parent/change campaign over the benchmark, as data
# (ROADMAP hygiene ii).
#
#   scripts/campaign.sh <parent-dir> <change-dir> <pairs> <seed> [workload…] \
#       > results/campaigns/PR<n>.json
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

if [ $# -lt 4 ]; then
    echo "usage: $0 <parent-dir> <change-dir> <pairs> <seed> [workload…]" >&2
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
