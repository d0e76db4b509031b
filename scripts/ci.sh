#!/usr/bin/env sh
# Hermetic tier-1 gate: build and test with no network and no registry.
#
# The workspace has zero external dependencies (see DESIGN.md,
# "Dependencies"), so --offline must always succeed from a fresh checkout;
# if this script fails with a registry error, someone reintroduced an
# external crate.
set -eu

cd "$(dirname "$0")/.."

# Runtime ISA dispatch is written once, in `gv_core::isa_tiers!`
# (crates/core/src/kernel.rs): a `#[target_feature]` attribute anywhere
# else under crates/ is a second copy of it.
awk '
    FILENAME == "crates/core/src/kernel.rs" && /^macro_rules! isa_tiers/ { inside = 1 }
    /^[[:space:]]*#\[target_feature/ && !inside { print FILENAME ":" FNR ": " $0; stray = 1 }
    inside && /^}/ { inside = 0 }
    END { if (stray) { print "ci: #[target_feature] outside gv_core::isa_tiers!"; exit 1 } }
' $(find crates -name '*.rs')

# One formatting for the whole workspace (`benchmark/` is a workspace of
# its own and keeps its own).
cargo fmt --all --check

cargo build --release --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# A deleted or renamed item strands the intra-doc links that name it, and
# nothing else resolves them. Only the unresolved-link lint is denied:
# links from public docs to private items and stray HTML tags stay
# warnings.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --offline --no-deps --workspace

# Run the whole test suite under a stall watchdog (see DESIGN.md,
# "Failure semantics and chaos harness"): any hang regression surfaces as
# a typed RunError::Stalled with a per-rank blocked-on report instead of
# wedging CI until an outer timeout kills it. The chaos soak
# (crates/msgpass/tests/chaos_soak.rs) runs as part of the workspace
# suite with its pinned, replayable seeds.
GV_WATCHDOG_MS=30000 cargo test -q --offline --workspace

# Smoke-run the figure/ablation harnesses with shrunk iteration counts:
# catches bins that build but panic at runtime (bad arg parsing, schedule
# assertion failures).
export GV_BENCH_QUICK=1
for bin in fig2_is_verify fig3_mg_zran3 mpi_call_stats \
           ablation_commutative ablation_aggregation \
           ablation_scan_algorithm ablation_allreduce_algorithm \
           ablation_selector_tuning k_independent_allreduces \
           kernel_microbench pipeline_microbench nas_cg nas_mg; do
    echo "smoke: $bin"
    ./target/release/"$bin" > /dev/null
done

# The scan-schedule ablation grew flags in its rewrite; exercise them so
# argument parsing and the CSV path stay alive.
echo "smoke: ablation_scan_algorithm --csv --procs 2,4 --sizes 8,4096"
./target/release/ablation_scan_algorithm --csv --procs 2,4 --sizes 8,4096 > /dev/null

# The pipeline microbench embeds the selector-within-5% and headline
# speedup acceptance asserts; run its host-clock table too, the only place the
# segmented schedules are timed rather than modeled, and its
# small-message latency table (both go to stderr, not the recorded
# table).
echo "smoke: pipeline_microbench --wall --latency"
./target/release/pipeline_microbench --wall --latency > /dev/null 2> /dev/null

# The aggregation ablation's host-clock table is the only place the slot
# pass under `Elementwise` is timed, for a built-in and a user operator.
echo "smoke: ablation_aggregation --wall"
./target/release/ablation_aggregation --wall > /dev/null 2> /dev/null

# The NAS IS harness times the ranking's phases on the host clock (to
# stderr, not a recorded table); keep the flag and its asserts alive.
echo "smoke: nas_is --class S --wall"
./target/release/nas_is --class S --wall > /dev/null 2> /dev/null
# One rank: every key its own, no piece to expand and nothing exchanged.
echo "smoke: nas_is --class S --procs 1 --wall"
./target/release/nas_is --class S --procs 1 --wall > /dev/null 2> /dev/null

# So do the MG and CG harnesses (ZRAN3's fill / extrema / charges and
# the one-pass call; a solve's dot / matvec / axpy), at their smallest
# sizes.
echo "smoke: nas_mg --class S --wall"
./target/release/nas_mg --class S --wall > /dev/null 2> /dev/null
# One rank: the whole grid one slab, no extremum crosses a rank.
echo "smoke: nas_mg --class S --procs 1 --wall"
./target/release/nas_mg --class S --procs 1 --wall > /dev/null 2> /dev/null
echo "smoke: nas_cg --wall"
./target/release/nas_cg --wall > /dev/null 2> /dev/null

# `benchmark/` is a package of its own (own workspace and lockfile) that
# reaches the library only through `benchmark/src/api.rs`, and a PR that
# is not a benchmark PR may not edit it. Build, test and quick-run it
# here so a deleted or re-signed public item the adapter needs fails CI
# rather than the perf driver's gate.
echo "benchmark: cargo test"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
echo "benchmark: run.sh --quick"
bash benchmark/run.sh --quick > /dev/null
