#!/usr/bin/env bash
# Builds the benchmark from source and runs it. With no arguments it runs
# every workload in both trace modes; the perf driver passes
# `--workload W --seed N --seconds S --trace 0|1` for a single run.
# See README.md in this directory for the other modes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GV_BENCH_OUT="${GV_BENCH_OUT:-$here/out}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/gv-benchmark" "$@"
