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

# gv-msgpass and gv-executor deny `unsafe_code` and each allow it on one
# module: `message` (`crates/msgpass/src/message.rs`, the inline payload)
# and `lane` (`crates/executor/src/lane.rs`, the SPSC ring), whose safety
# arguments are written there. Any other `unsafe` block, fn, impl or
# trait, or any other `allow(unsafe_code)`, under either crate is a
# second place such an argument would have to cover.
awk '
    BEGIN {
        own["crates/msgpass/src/lib.rs"] = "mod message;"
        own["crates/executor/src/lib.rs"] = "pub mod lane;"
    }
    FILENAME == "crates/msgpass/src/message.rs" || FILENAME == "crates/executor/src/lane.rs" { next }
    pending {
        line = $0
        sub(/^[[:space:]]+/, "", line)
        if (line != own[pending_file]) { print pending; stray = 1 }
        pending = ""
    }
    /allow\(unsafe_code\)/ {
        here = FILENAME ":" FNR ": " $0
        if (FILENAME in own) { pending = here; pending_file = FILENAME } else { print here; stray = 1 }
        next
    }
    /(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|fn[[:space:]]|impl[[:space:]<]|trait[[:space:]]|extern[[:space:]])/ {
        print FILENAME ":" FNR ": " $0; stray = 1
    }
    END {
        if (pending) { print pending; stray = 1 }
        if (stray) { print "ci: unsafe in gv-msgpass or gv-executor outside mod message and mod lane"; exit 1 }
    }
' $(find crates/msgpass crates/executor -name '*.rs')

# Every blocking allreduce and scan runs recursive doubling, so nothing
# splits a state. The `_splittable` entry points, `SplittableState` and
# `split_vec_segments` stay only as aliases for the frozen benchmark
# adapter (`benchmark/src/api.rs`): outside the code that defines them
# (above `#[cfg(test)]` in the files below) only
# `tests/splittable_aliases.rs`, which pins them, may name them under
# crates/, tests/ or examples/.
awk '
    FNR == 1 { tests = 0 }
    /^#\[cfg\(test\)\]/ { tests = 1 }
    FILENAME == "tests/splittable_aliases.rs" { next }
    FILENAME ~ /^crates\/(msgpass\/src\/collectives\/(select|tree)|rsmpi\/src\/(lib|reduce|scan)|core\/src\/(split|ops\/counts))\.rs$/ && !tests { next }
    /_splittable|SplittableState|split_vec_segments/ { print FILENAME ":" FNR ": " $0; stray = 1 }
    END { if (stray) { print "ci: a splittable alias named outside its definition"; exit 1 } }
' $(find crates tests examples -name '*.rs')

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
           k_independent_allreduces \
           kernel_microbench schedule_audit nas_cg nas_mg; do
    echo "smoke: $bin"
    ./target/release/"$bin" > /dev/null
done

# The examples check their own output, but clippy and the test run only
# compile them: an example that panics would pass both.
for example in quickstart particles sortcheck topten groupstats; do
    echo "example: $example"
    cargo run -q --offline --release --example "$example" > /dev/null
done

# The quick smoke above runs NB-OVERLAP at p = 8 only. At p = 2 every
# rank roots every other request's tree, and the overlapped batch must
# still beat the sequential one in modeled time (the bin asserts it). At
# p = 1 both times are 0, and the table must print no speedup, not NaN.
echo "smoke: k_independent_allreduces --procs 1,2"
overlap_table=$(GV_BENCH_QUICK=0 ./target/release/k_independent_allreduces --procs 1,2)
if printf '%s\n' "$overlap_table" | grep -q NaN; then
    printf '%s\n' "$overlap_table" >&2
    echo "k_independent_allreduces printed NaN" >&2
    exit 1
fi

# The scan ablation's flags (`--csv`, `--procs`, `--sizes`): exercise
# them so argument parsing and the CSV path stay alive.
echo "smoke: ablation_scan_algorithm --csv --procs 2,4 --sizes 8,4096"
./target/release/ablation_scan_algorithm --csv --procs 2,4 --sizes 8,4096 > /dev/null

# The small-message latency table (stderr, not recorded), as
# `scripts/campaign.sh --latency` runs it.
echo "smoke: pipeline_microbench --latency"
./target/release/pipeline_microbench --latency > /dev/null 2> /dev/null

# The aggregation ablation's host-clock table is the only place the slot
# pass under `Elementwise` is timed, for a built-in and a user operator.
echo "smoke: ablation_aggregation --wall"
./target/release/ablation_aggregation --wall > /dev/null 2> /dev/null

# The NAS IS harness times the ranking's phases on the host clock (to
# stderr, not a recorded table); keep the flag and its asserts alive.
echo "smoke: nas_is --class S --wall"
./target/release/nas_is --class S --wall > /dev/null 2> /dev/null
# One rank: every key its own, no span to copy and nothing exchanged.
echo "smoke: nas_is --class S --procs 1 --wall"
./target/release/nas_is --class S --procs 1 --wall > /dev/null 2> /dev/null
# Three ranks: three pieces a rank, its own among them, and a remainder
# span (2¹⁶ values do not divide by 3), through the `#[path]` copy of the
# phases and its `is_sorted` assert.
echo "smoke: nas_is --class W --procs 3 --wall"
./target/release/nas_is --class W --procs 3 --wall > /dev/null 2> /dev/null

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

# Every fast path and mended bug in `scripts/mutants.ledger` has a test
# that fails without it: each entry is applied to a copy of the checkout
# and its named tests must fail there (minutes; not part of tier-1).
echo "mutants: scripts/mutants.sh"
scripts/mutants.sh
