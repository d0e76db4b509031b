//! Experiment BENCH-KERNEL: wall-clock throughput of the intra-rank block
//! kernels (`gv_core::kernel`) against the forced per-element scalar
//! loop, op × type × length.
//!
//! Like TXT-TRANSPORT this times the real host, not the cost model: the
//! modeled `accum_ops`/`combine_ops` charges are dispatch-independent by
//! design (recorded figures stay bit-identical with kernels on), so the
//! kernels' whole value is wall-clock and must be shown as wall-clock.
//!
//! Each gated cell (Sum/Min/Max × i64/f64, reduce and scan) contributes
//! to a geometric-mean speedup with a 4× PASS/FAIL target; extra rows
//! (prod, bitwise, bucketed Counts/Histogram, the filtered
//! `TopBottomK(10)` over a slice of `(f64, u64)` pairs and — the `_iter`
//! row — over a generated `(v, i)` stream through `reduce_iter`, ZRAN3's
//! shape) are reported but not gated. Before timing, every integer cell
//! asserts the kernel result is bit-identical to the scalar loop, and
//! every float cell asserts two kernel runs are bit-identical
//! (determinism; the scalar comparison for floats is the
//! *pinned-regrouping reference*, property-tested in `tests/op_laws.rs`).
//!
//! After the kernel table come the `split`/`unsplit` rows: segmenting a
//! 131072-element `Vec<u64>` state (1 MiB, the `large_state` size) into
//! `S` parts and reassembling it. Reported, not gated; what to look for is
//! that the cost is flat in `S` — every segmented collective pays it on
//! every rank before its first message. Under glibc's default thresholds
//! fresh-page faults swamp the copy (the recording pins them as
//! `benchmark/README.md`, "Noise" item 1, does, and prints the setting).
//!
//! The two `accum_*` rows of the kernel table are the user-style operators
//! on the benchmark's path: `MeanVar` (two-pass per 1024-element block and
//! a Chan merge, against the Welford divide chain) and `MinK(10)` (a
//! filtered replay, bit-identical). Below the table, the `accum_runs` rows
//! put the *derived* kernel — `gv_core::kernel::accum_runs`, four identity
//! states per block combined in order — against the scalar loop for every
//! operator it was tried on, at 4 Mi elements (one `local_heavy` rank's
//! share). It is not a universal win, so each row says whether the
//! operator opted in (bar: 1.25×), was rejected, or has a hand kernel that
//! is faster still; DESIGN.md's opt-in table quotes these.
//!
//! Last come the `count_into` rows at the table widths NAS IS ranks with:
//! one rank's class A keys at p = 2 counted into a 2¹⁸-entry table (its
//! own span there) and a 2¹⁹-entry one (the whole range, p = 1). Both are
//! above the kernel's replicated-table bound, so this is its plain
//! increment loop, latency-bound on the table; reported, not gated.
//!
//! Then the `output/*` rows: what it costs to *land* 4 Mi outputs (32 MiB,
//! one `local_heavy` rank's scan, one rank's class A `key_ranks`) in a
//! buffer that is already mapped (`reused`) against one allocated by the
//! call and dropped after it (`fresh`, what `seq::scan`, `gv_rsmpi::scan`
//! and `key_ranks` do), in ns per element and minor page faults per call.
//! The gap between the two columns is the page-fault tax of DESIGN.md,
//! "Where outputs land": 8192 faults per call with small pages, about 530
//! when `gv_core::mem` gets its huge pages. It depends on the host's
//! transparent-huge-page mode and on the allocator's thresholds, so the
//! table prints both; compare two builds on the `fresh` columns only
//! under the same mode. Reported, not gated.
//!
//! The k-best rows (`reduce/topbottomk10_*`, `accum_mink10`) are repeated
//! at 2²⁰ elements, one ZRAN3 rank's share: at 131072 a fresh state is
//! still being filled for much of the run, so those rows time the warm-up,
//! and these the steady state ZRAN3 runs in.
//!
//! Then the two kernels that are dispatched tier by tier *by measurement*,
//! each tier called directly. `randlc/fill`: `gv_nas::randlc::Randlc::fill`
//! as the one-chain loop (the portable tier) and in lanes on every vector
//! tier the host runs, in cache (4096 variates, NAS IS's staging buffer)
//! and streaming (2²⁰, one ZRAN3 slab). `filter/any_*`:
//! `gv_core::kernel::any_in_block` over `i64`, `f64` and `(f64, u64)` pairs
//! in its two loop forms on every tier, beside the library's own dispatched
//! kernel. A tier earns its dispatch only where its row beats the portable
//! one; DESIGN.md quotes both tables.
//!
//! Last, experiment TXT-TRANSLATE (paper §3: translating each input into a
//! state and combining it "would result in worse performance" than
//! accumulating it): `seq::reduce` of `sum<i64>` and of `MinK` at k ∈ {1,
//! 10, 100} over 50 000 elements, as written and through
//! `gv_core::ops::translate::Translated`, each pair verified equal. The
//! accumulate column of the `MinK` rows is also the k-sweep of the
//! operator itself.
//!
//! Usage: kernel_microbench [--csv]
//! Env:   GV_BENCH_QUICK=1 shrinks iteration counts for a CI smoke run.

use std::hint::black_box;
use std::time::Instant;

use gv_bench::table::has_flag;
use gv_core::iter::reduce_iter;
use gv_core::kernel::{any_in_block, IsaTier, BLOCK};
use gv_core::op::{
    accumulate_block, accumulate_block_scalar, rescan_block, rescan_block_scalar, ReduceScanOp,
    ScanKind,
};
use gv_core::ops::builtin::{bxor, max, min, prod, sum};
use gv_core::ops::counts::Counts;
use gv_core::ops::histogram::Histogram;
use gv_core::ops::kadane::MaxSubarray;
use gv_core::ops::mink::MinK;
use gv_core::ops::minloc::MinI;
use gv_core::ops::minmax::MinMax;
use gv_core::ops::runs::LongestRun;
use gv_core::ops::sorted::Sorted;
use gv_core::ops::stats::MeanVar;
use gv_core::ops::topk::TopBottomK;
use gv_core::ops::translate::reduce_translated;
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_nas::is::{generate_keys, key_ranks, SortedBlock};
use gv_nas::randlc::Randlc;
use gv_nas::IsClass;

/// Best-of-`reps` nanoseconds per element for `iters` runs of `f`.
fn time_ns(n: usize, iters: u32, reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_elem = started.elapsed().as_secs_f64() / iters as f64 / n as f64 * 1e9;
        best = best.min(per_elem);
    }
    best
}

struct Cell {
    name: String,
    n: usize,
    scalar_ns: f64,
    kernel_ns: f64,
    gated: bool,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.kernel_ns
    }
}

fn reduce_value<Op: ReduceScanOp>(op: &Op, data: &[Op::In], scalar: bool) -> Op::Out {
    let mut s = op.ident();
    if scalar {
        accumulate_block_scalar(op, &mut s, data);
    } else {
        accumulate_block(op, &mut s, data);
    }
    op.red_gen(s)
}

fn scan_values<Op: ReduceScanOp>(op: &Op, data: &[Op::In], scalar: bool) -> Vec<Op::Out> {
    let mut s = op.ident();
    let mut out = Vec::with_capacity(data.len());
    if scalar {
        rescan_block_scalar(op, &mut s, data, ScanKind::Inclusive, &mut out);
    } else {
        rescan_block(op, &mut s, data, ScanKind::Inclusive, &mut out);
    }
    out
}

/// Times one reduce cell, verifying dispatch agreement first.
///
/// `exact` cells assert kernel == scalar; non-exact (float sum/prod)
/// cells assert the kernel is run-to-run deterministic instead.
fn reduce_cell<Op>(
    name: &str,
    op: &Op,
    data: &[Op::In],
    exact: bool,
    gated: bool,
    iters: u32,
    reps: u32,
) -> Cell
where
    Op: ReduceScanOp,
    Op::Out: PartialEq + std::fmt::Debug,
{
    if exact {
        assert_eq!(
            reduce_value(op, data, false),
            reduce_value(op, data, true),
            "{name}: kernel reduce must be bit-identical to scalar"
        );
    } else {
        assert_eq!(
            reduce_value(op, data, false),
            reduce_value(op, data, false),
            "{name}: kernel reduce must be deterministic across runs"
        );
    }
    let n = data.len();
    let scalar_ns = time_ns(n, iters, reps, || {
        black_box(reduce_value(op, black_box(data), true));
    });
    let kernel_ns = time_ns(n, iters, reps, || {
        black_box(reduce_value(op, black_box(data), false));
    });
    Cell {
        name: format!("reduce/{name}"),
        n,
        scalar_ns,
        kernel_ns,
        gated,
    }
}

/// `(v, i)` pairs generated from `values`: ZRAN3's stream shape.
fn stream(values: &[f64]) -> impl Iterator<Item = (f64, u64)> + '_ {
    values.iter().copied().zip(0u64..)
}

/// Times `TopBottomK(10)` over the [`stream`] of `values`, never
/// materialized: the per-element `accum` loop over the stream against
/// `reduce_iter`, which stages it through the block kernel.
fn streamed_topbottomk_cell(values: &[f64], iters: u32, reps: u32) -> Cell {
    let op = TopBottomK::<f64, u64>::new(10);
    let per_element = |values: &[f64]| {
        let mut s = op.ident();
        for x in stream(values) {
            op.accum(&mut s, &x);
        }
        op.red_gen(s)
    };
    assert_eq!(
        reduce_iter(&op, stream(values)),
        per_element(values),
        "topbottomk10_iter: staged reduce must be bit-identical to the per-element loop"
    );
    let n = values.len();
    let scalar_ns = time_ns(n, iters, reps, || {
        black_box(per_element(black_box(values)));
    });
    let kernel_ns = time_ns(n, iters, reps, || {
        black_box(reduce_iter(&op, stream(black_box(values))));
    });
    Cell {
        name: "reduce/topbottomk10_iter".into(),
        n,
        scalar_ns,
        kernel_ns,
        gated: false,
    }
}

/// The k-best rows — the three operators that ask
/// `gv_core::kernel::any_in_block` which granules to replay: `TopBottomK(10)`
/// over a slice of pairs and over the stream, `MinK(10)` over a slice.
fn kbest_cells(ints: &[i64], floats: &[f64], iters: u32, reps: u32) -> [Cell; 3] {
    let pairs: Vec<(f64, u64)> = stream(floats).collect();
    let topbottom = TopBottomK::<f64, u64>::new(10);
    [
        reduce_cell(
            "topbottomk10_f64",
            &topbottom,
            &pairs,
            true,
            false,
            iters,
            reps,
        ),
        streamed_topbottomk_cell(floats, iters, reps),
        Cell {
            name: "accum_mink10".into(),
            ..reduce_cell(
                "mink10",
                &MinK::<i64>::new(10),
                ints,
                true,
                false,
                iters,
                reps,
            )
        },
    ]
}

/// Times one inclusive-scan cell, verifying dispatch agreement first.
fn scan_cell<Op>(
    name: &str,
    op: &Op,
    data: &[Op::In],
    exact: bool,
    gated: bool,
    iters: u32,
    reps: u32,
) -> Cell
where
    Op: ReduceScanOp,
    Op::Out: PartialEq + std::fmt::Debug,
{
    if exact {
        assert_eq!(
            scan_values(op, data, false),
            scan_values(op, data, true),
            "{name}: kernel scan must be bit-identical to scalar"
        );
    } else {
        assert_eq!(
            scan_values(op, data, false),
            scan_values(op, data, false),
            "{name}: kernel scan must be deterministic across runs"
        );
    }
    let n = data.len();
    let mut out: Vec<Op::Out> = Vec::with_capacity(n);
    let scalar_ns = time_ns(n, iters, reps, || {
        out.clear();
        let mut s = op.ident();
        rescan_block_scalar(op, &mut s, black_box(data), ScanKind::Inclusive, &mut out);
        black_box(&out);
    });
    let kernel_ns = time_ns(n, iters, reps, || {
        out.clear();
        let mut s = op.ident();
        rescan_block(op, &mut s, black_box(data), ScanKind::Inclusive, &mut out);
        black_box(&out);
    });
    Cell {
        name: format!("scan/{name}"),
        n,
        scalar_ns,
        kernel_ns,
        gated,
    }
}

gv_core::operator! {
    /// A float sum written as a user would write it, with no kernel of its
    /// own: what `accum_runs` does for an operator the library never saw.
    pub UserSum {
        input: f64;
        output: f64;
        state UserSumState { total: f64 = 0.0 }
        accum(s, x) { s.total += *x; }
        combine(a, b) { a.total += b.total; }
        generate(s) -> f64 { s.total }
    }
}

/// Verdicts of the `accum_runs` rows: what became of each operator tried.
const OPTED_IN: &str = "opted in";
const REJECTED: &str = "rejected";
const HAND_KERNEL: &str = "rejected: hand kernel";
const USER_DEFINED: &str = "user-defined";

/// `op` over `data` through the derived kernel, with the
/// `pre_accum`/`post_accum` hooks around it as `accumulate_block` applies
/// them around an operator's own `accum_block`.
fn reduce_runs<Op: ReduceScanOp>(op: &Op, data: &[Op::In]) -> Op::Out {
    let mut s = op.ident();
    if let (Some(first), Some(last)) = (data.first(), data.last()) {
        op.pre_accum(&mut s, first);
        gv_core::kernel::accum_runs(op, &mut s, data);
        op.post_accum(&mut s, last);
    }
    op.red_gen(s)
}

/// Best-of-`reps` nanoseconds per element of `scalar` and of `kernel`,
/// timed rep by rep in turn so that a slow phase of the host lands on
/// both sides: a verdict hangs on the ratio.
fn alternating_ns(
    n: usize,
    iters: u32,
    reps: u32,
    mut scalar: impl FnMut(),
    mut kernel: impl FnMut(),
) -> (f64, f64) {
    let (mut scalar_ns, mut kernel_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        scalar_ns = scalar_ns.min(time_ns(n, iters, 1, &mut scalar));
        kernel_ns = kernel_ns.min(time_ns(n, iters, 1, &mut kernel));
    }
    (scalar_ns, kernel_ns)
}

/// Times the scalar loop against [`reduce_runs`] (the cell's `kernel_ns`)
/// by [`alternating_ns`]. `exact` cells assert the two agree;
/// float-regrouping cells assert the derived kernel is deterministic.
fn runs_cell<Op>(
    name: &str,
    op: &Op,
    data: &[Op::In],
    exact: bool,
    verdict: &'static str,
    iters: u32,
    reps: u32,
) -> (Cell, &'static str)
where
    Op: ReduceScanOp,
    Op::Out: PartialEq + std::fmt::Debug,
{
    let expected = if exact {
        reduce_value(op, data, true)
    } else {
        reduce_runs(op, data)
    };
    assert_eq!(
        reduce_runs(op, data),
        expected,
        "{name}: accum_runs disagrees"
    );
    let n = data.len();
    let (scalar_ns, kernel_ns) = alternating_ns(
        n,
        iters,
        reps,
        || {
            black_box(reduce_value(op, black_box(data), true));
        },
        || {
            black_box(reduce_runs(op, black_box(data)));
        },
    );
    (
        Cell {
            name: format!("accum_runs/{name}"),
            n,
            scalar_ns,
            kernel_ns,
            gated: false,
        },
        verdict,
    )
}

/// Elements and `MinK` widths of the `translate/*` rows.
const TRANSLATE_N: usize = 50_000;
const TRANSLATE_KS: [usize; 3] = [1, 10, 100];

/// One `translate/*` row: `seq::reduce` of `op` over `data` through
/// `Translated` (the cell's `scalar_ns`) against `op` as written (its
/// `kernel_ns`), by [`alternating_ns`]; the two must agree.
fn translate_cell<Op>(name: &str, op: &Op, data: &[Op::In], iters: u32, reps: u32) -> Cell
where
    Op: ReduceScanOp,
    Op::Out: PartialEq + std::fmt::Debug,
{
    assert_eq!(
        reduce_translated(op, data),
        gv_core::seq::reduce(op, data),
        "{name}: translate and accumulate disagree"
    );
    let n = data.len();
    let (scalar_ns, kernel_ns) = alternating_ns(
        n,
        iters,
        reps,
        || {
            black_box(reduce_translated(op, black_box(data)));
        },
        || {
            black_box(gv_core::seq::reduce(op, black_box(data)));
        },
    );
    Cell {
        name: format!("translate/{name}"),
        n,
        scalar_ns,
        kernel_ns,
        gated: false,
    }
}

/// Segment counts of the `split`/`unsplit` rows: whole, halves, the tree
/// chooser's pick for 1 MiB, and its cap.
const SEGMENT_COUNTS: [usize; 4] = [1, 2, 20, 64];

/// Best-of-`reps` `(split, unsplit)` nanoseconds per element for an
/// `n`-element `Vec<u64>` cut into `parts`; building the input is untimed.
fn segmenting_ns(n: usize, parts: usize, reps: u32) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let state = black_box(vec![1u64; n]);
        let started = Instant::now();
        let segments = black_box(split_vec_segments(state, parts));
        let split = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let whole = black_box(unsplit_vec_segments(segments));
        let unsplit = started.elapsed().as_secs_f64();
        assert_eq!(whole.len(), n);
        best = (best.0.min(split), best.1.min(unsplit));
    }
    (best.0 / n as f64 * 1e9, best.1 / n as f64 * 1e9)
}

/// Table widths of the `count_into` rows: NAS IS class A's span per rank
/// at p = 2, and its whole key range.
const COUNT_TABLES: [usize; 2] = [1 << 18, 1 << 19];

/// Best-of-`reps` nanoseconds per key for `count_into` over `keys` folded
/// (by a mask: `k` is a power of two) into a `k`-entry table that is
/// allocated and zeroed untimed.
fn counting_ns(keys: &[u32], k: usize, reps: u32) -> f64 {
    assert!(k.is_power_of_two());
    let mut table = vec![0u64; k];
    let ns = time_ns(keys.len(), 1, reps, || {
        gv_core::kernel::count_into(&mut table, black_box(keys), |&key| key as usize & (k - 1));
    });
    assert_eq!(
        table.iter().sum::<u64>(),
        keys.len() as u64 * u64::from(reps)
    );
    ns
}

/// Minor page faults the calling thread has taken so far (field 10 of
/// `/proc/thread-self/stat`), where there is such a file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The thread's name, field 2, is parenthesised and may hold anything.
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_ascii_whitespace().nth(7)?.parse().ok()
}

/// Best-of-`reps` nanoseconds per element of one `call` over `n` elements,
/// and the minor faults an average call took (`None` off Linux).
fn landing(n: usize, reps: u32, mut call: impl FnMut()) -> (f64, Option<u64>) {
    call();
    let before = minor_faults();
    let ns = time_ns(n, 1, reps, &mut call);
    let faults = minor_faults()
        .zip(before)
        .map(|(after, before)| (after - before) / u64::from(reps));
    (ns, faults)
}

/// One `output/*` row: a name, then `(ns per element, faults per call)`
/// into a reused buffer and into a fresh one.
type OutputRow = (&'static str, (f64, Option<u64>), (f64, Option<u64>));

/// An inclusive scan of `data` into the same buffer every call, against
/// `seq::scan`, which allocates its output and whose caller drops it.
fn output_scan_row<Op>(name: &'static str, op: &Op, data: &[Op::In], reps: u32) -> OutputRow
where
    Op: ReduceScanOp,
{
    let n = data.len();
    let mut out: Vec<Op::Out> = Vec::with_capacity(n);
    let reused = landing(n, reps, || {
        out.clear();
        rescan_block(
            op,
            &mut op.ident(),
            black_box(data),
            ScanKind::Inclusive,
            &mut out,
        );
        black_box(&out);
    });
    drop(out);
    let fresh = landing(n, reps, || {
        black_box(gv_core::seq::scan(op, black_box(data), ScanKind::Inclusive));
    });
    (name, reused, fresh)
}

/// The global ranks of an `n`-key block written into the same buffer
/// every call, against `key_ranks`, which allocates them.
fn output_key_ranks_row(n: usize, reps: u32) -> OutputRow {
    let block = SortedBlock {
        keys: vec![0; n],
        global_offset: n as u64,
    };
    let mut out: Vec<u64> = Vec::with_capacity(n);
    let reused = landing(n, reps, || {
        out.clear();
        let first = black_box(block.global_offset);
        out.extend(first..first + n as u64);
        black_box(&out);
    });
    drop(out);
    let fresh = landing(n, reps, || {
        black_box(key_ranks(black_box(&block)));
    });
    ("key_ranks", reused, fresh)
}

/// Lengths of the `randlc/fill` rows: NAS IS's staging buffer, which stays
/// in cache, and one ZRAN3 rank's slab, which streams to memory.
const FILL_LENGTHS: [usize; 2] = [4_096, 1 << 20];

/// One `randlc/fill` row: best-of-`reps` nanoseconds per variate of an
/// `n`-variate `fill` on each tier of `IsaTier::available` (the first is the
/// one-chain loop), each held to the first's values and final state before
/// it is timed.
fn fill_row(n: usize, iters: u32, reps: u32) -> Vec<(IsaTier, f64)> {
    let mut buf = vec![0.0f64; n];
    let mut expected: Option<(Vec<u64>, u64)> = None;
    IsaTier::available()
        .iter()
        .map(|&tier| {
            let mut gen = Randlc::nas_default();
            gen.fill_on(tier, &mut buf);
            let got = (buf.iter().map(|v| v.to_bits()).collect(), gen.state());
            let expected = expected.get_or_insert_with(|| got.clone());
            assert!(
                got == *expected,
                "randlc/fill: the {} tier left the stream",
                tier.name()
            );
            let ns = time_ns(n, iters, reps, || {
                black_box(Randlc::nas_default()).fill_on(tier, black_box(&mut buf));
            });
            (tier, ns)
        })
        .collect()
}

// The two loop forms of `gv_core::kernel::any_in_block` built for every
// tier, spelled again: the library's per-tier entries are private, and a
// row per form and tier is what says which form a tier should compile and
// whether it earns its dispatch at all. The `dispatched` column of the
// table is the library's own kernel.
gv_core::isa_tiers! {
    // The `bool` OR: the library's baseline and AVX-512 form.
    mod or<T: Copy>(block: &[T], hit: impl Fn(T) -> bool + Copy) -> bool {
        let mut any = false;
        for &x in block {
            any |= hit(x);
        }
        any
    }
}

gv_core::isa_tiers! {
    // The hit count: the library's AVX2 form.
    mod count<T: Copy>(block: &[T], hit: impl Fn(T) -> bool + Copy) -> bool {
        let mut hits = 0u64;
        for &x in block {
            hits += u64::from(hit(x));
        }
        hits != 0
    }
}

/// Lengths of the `filter/any_*` rows: one staged block, which the filter
/// reads back from L1 (ZRAN3's case), and 2²⁰ elements asked about a
/// [`BLOCK`] at a time, which stream from beyond it (`MinK`'s case).
const FILTER_LENGTHS: [usize; 2] = [BLOCK, 1 << 20];

/// One `filter/any_*` row: a loop form, its nanoseconds per element on
/// each tier the host runs, and — on the row of the form the library
/// compiles for this host's tier — the library's own dispatched kernel.
struct FilterRow {
    name: &'static str,
    n: usize,
    form: &'static str,
    tiers: Vec<(IsaTier, f64)>,
    dispatched: Option<f64>,
}

/// The `or` and `count` rows for `data` asked a [`BLOCK`] at a time whether
/// any element passes `hit` — none may, so that every row scans
/// everything: the steady state, where almost no granule is replayed.
fn filter_rows<T: Copy>(
    name: &'static str,
    data: &[T],
    hit: impl Fn(T) -> bool + Copy,
    iters: u32,
    reps: u32,
) -> [FilterRow; 2] {
    assert!(
        !data.iter().any(|&x| hit(x)),
        "{name}: the filter rows time blocks without a hit"
    );
    let n = data.len();
    let time = |any: &dyn Fn(&[T]) -> bool| {
        time_ns(n, iters, reps, || {
            for block in black_box(data).chunks(BLOCK) {
                assert!(
                    !any(block),
                    "{name}: a form found a hit the scalar loop did not"
                );
            }
        })
    };
    let on_tiers = |any_on: &dyn Fn(IsaTier, &[T]) -> bool| -> Vec<(IsaTier, f64)> {
        IsaTier::available()
            .iter()
            .map(|&tier| (tier, time(&|block| any_on(tier, block))))
            .collect()
    };
    let or = on_tiers(&|tier, block| or::on(tier, block, hit));
    let count = on_tiers(&|tier, block| count::on(tier, block, hit));
    let dispatched = Some(time(&|block| any_in_block(block, hit)));
    // The library compiles the count under AVX2 and the OR elsewhere.
    let counts = gv_core::kernel::isa_tier() == IsaTier::Avx2;
    [
        FilterRow {
            name,
            n,
            form: "or",
            tiers: or,
            dispatched: dispatched.filter(|_| !counts),
        },
        FilterRow {
            name,
            n,
            form: "count",
            tiers: count,
            dispatched: dispatched.filter(|_| counts),
        },
    ]
}

fn data_i64(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| (i.wrapping_mul(2654435761)) % 1_000_003 - 500_000)
        .collect()
}

fn data_f64(n: usize) -> Vec<f64> {
    data_i64(n).into_iter().map(|x| x as f64 / 7.0).collect()
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0u32), |(s, c), v| (s + v.ln(), c + 1));
    if count == 0 {
        1.0
    } else {
        (sum / count as f64).exp()
    }
}

const TARGET: f64 = 4.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let quick = std::env::var("GV_BENCH_QUICK").is_ok_and(|v| v != "0");
    // ~32 Mi elements of work per timing rep in full mode.
    let (work, reps) = if quick {
        (1u64 << 18, 1)
    } else {
        (1u64 << 25, 3)
    };

    let lengths = [4_096usize, 131_072];
    let mut cells: Vec<Cell> = Vec::new();

    for &n in &lengths {
        let iters = (work / n as u64).max(1) as u32;
        let ints = data_i64(n);
        let floats = data_f64(n);

        // Gated cells: the acceptance sweep, Sum/Min/Max × i64/f64.
        cells.push(reduce_cell(
            "sum_i64",
            &sum::<i64>(),
            &ints,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(reduce_cell(
            "min_i64",
            &min::<i64>(),
            &ints,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(reduce_cell(
            "max_i64",
            &max::<i64>(),
            &ints,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(reduce_cell(
            "sum_f64",
            &sum::<f64>(),
            &floats,
            false,
            true,
            iters,
            reps,
        ));
        cells.push(reduce_cell(
            "min_f64",
            &min::<f64>(),
            &floats,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(reduce_cell(
            "max_f64",
            &max::<f64>(),
            &floats,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(scan_cell(
            "sum_i64",
            &sum::<i64>(),
            &ints,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(scan_cell(
            "min_i64",
            &min::<i64>(),
            &ints,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(scan_cell(
            "max_i64",
            &max::<i64>(),
            &ints,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(scan_cell(
            "sum_f64",
            &sum::<f64>(),
            &floats,
            false,
            true,
            iters,
            reps,
        ));
        cells.push(scan_cell(
            "min_f64",
            &min::<f64>(),
            &floats,
            true,
            true,
            iters,
            reps,
        ));
        cells.push(scan_cell(
            "max_f64",
            &max::<f64>(),
            &floats,
            true,
            true,
            iters,
            reps,
        ));

        // Reported, ungated: product, bitwise, and the bucketed fast path.
        let pos: Vec<f64> = floats.iter().map(|x| 1.0 + x.abs() * 1e-9).collect();
        cells.push(reduce_cell(
            "prod_f64",
            &prod::<f64>(),
            &pos,
            false,
            false,
            iters,
            reps,
        ));
        let words: Vec<u64> = ints.iter().map(|&x| x as u64).collect();
        cells.push(reduce_cell(
            "bxor_u64",
            &bxor::<u64>(),
            &words,
            true,
            false,
            iters,
            reps,
        ));
        let buckets: Vec<usize> = ints
            .iter()
            .map(|&x| (x.unsigned_abs() % 256) as usize)
            .collect();
        cells.push(reduce_cell(
            "counts_256",
            &Counts::new(256),
            &buckets,
            true,
            false,
            iters,
            reps,
        ));
        cells.push(reduce_cell(
            "histogram_u256",
            &Histogram::uniform(-600_000.0, 600_000.0, 256),
            &floats,
            true,
            false,
            iters,
            reps,
        ));
        // The user-style operators on the benchmark's path.
        cells.push(Cell {
            name: "accum_meanvar".into(),
            ..reduce_cell("meanvar", &MeanVar, &floats, false, false, iters, reps)
        });
        cells.extend(kbest_cells(&ints, &floats, iters, reps));
    }
    // The k-best rows in the steady state: one ZRAN3 rank's share (2^16 in
    // quick mode).
    let steady_n = if quick { 1usize << 16 } else { 1 << 20 };
    let steady_iters = (work / steady_n as u64).max(1) as u32;
    cells.extend(kbest_cells(
        &data_i64(steady_n),
        &data_f64(steady_n),
        steady_iters,
        reps,
    ));

    // The derived kernel, operator by operator, at one local_heavy rank's
    // share (2^16 in quick mode).
    let runs_n = if quick { 1usize << 16 } else { 1 << 22 };
    let runs_iters = (work / runs_n as u64).max(1) as u32;
    let runs_reps = 2 * reps;
    let ints = data_i64(runs_n);
    let floats = data_f64(runs_n);
    let int_pairs: Vec<(i64, u64)> = ints.iter().copied().zip(0u64..).collect();
    let sorted: Vec<i64> = (0..runs_n as i64).collect();
    let derived = [
        runs_cell(
            "meanvar",
            &MeanVar,
            &floats,
            false,
            HAND_KERNEL,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "user_sum_f64",
            &UserSum,
            &floats,
            false,
            USER_DEFINED,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "minmax_f64",
            &MinMax::<f64>::new(),
            &floats,
            true,
            OPTED_IN,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "minmax_i64",
            &MinMax::<i64>::new(),
            &ints,
            true,
            OPTED_IN,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "mini_i64",
            &MinI::<i64, u64>::new(),
            &int_pairs,
            true,
            REJECTED,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "max_subarray",
            &MaxSubarray,
            &ints,
            true,
            REJECTED,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "longest_run",
            &LongestRun::<i64>::new(),
            &ints,
            true,
            REJECTED,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "sorted_i64",
            &Sorted::<i64>::new(),
            &sorted,
            true,
            REJECTED,
            runs_iters,
            runs_reps,
        ),
        runs_cell(
            "mink10_i64",
            &MinK::<i64>::new(10),
            &ints,
            true,
            HAND_KERNEL,
            runs_iters,
            runs_reps,
        ),
    ];

    let gate = geomean(cells.iter().filter(|c| c.gated).map(Cell::speedup));
    let pass = gate >= TARGET;

    let state_len = 131_072usize;
    let segmenting_reps = if quick { 5 } else { 200 };
    let segmenting: Vec<(usize, (f64, f64))> = SEGMENT_COUNTS
        .iter()
        .map(|&parts| (parts, segmenting_ns(state_len, parts, segmenting_reps)))
        .collect();

    // One rank's keys of 2 (of 128 in quick mode: 2¹⁶ keys, not 2²²).
    let is_keys = generate_keys(IsClass::A, 0, if quick { 128 } else { 2 });
    let counting_reps = if quick { 2 } else { 10 };
    let counting: Vec<(usize, f64)> = COUNT_TABLES
        .iter()
        .map(|&k| (k, counting_ns(&is_keys, k, counting_reps)))
        .collect();

    // One local_heavy rank's outputs (2²⁰ in quick mode: 8 MiB, still
    // over the size at which an output window is advised).
    let output_n = if quick { 1usize << 20 } else { 1 << 22 };
    let output_reps = if quick { 2 } else { 10 };
    let outputs = [
        output_scan_row(
            "scan_sum_i64",
            &sum::<i64>(),
            &data_i64(output_n),
            output_reps,
        ),
        output_scan_row(
            "scan_min_f64",
            &min::<f64>(),
            &data_f64(output_n),
            output_reps,
        ),
        output_key_ranks_row(output_n, output_reps),
    ];

    // The two kernels dispatched by measurement, every tier called
    // directly (in quick mode the long rows shrink to 2^16).
    let shrink = |n: usize| if quick { n.min(1 << 16) } else { n };
    let fills: Vec<(usize, Vec<(IsaTier, f64)>)> = FILL_LENGTHS
        .iter()
        .map(|&n| shrink(n))
        .map(|n| (n, fill_row(n, (work / n as u64).max(1) as u32, reps)))
        .collect();
    let mut filters: Vec<FilterRow> = Vec::new();
    for n in FILTER_LENGTHS.map(shrink) {
        let iters = (work / n as u64).max(1) as u32;
        // Bounds no element of `data_i64` / `data_f64` reaches.
        let (lo_i, lo, hi) = (
            black_box(-600_000i64),
            black_box(-600_000.0f64),
            black_box(600_000.0f64),
        );
        let floats = data_f64(n);
        let pairs: Vec<(f64, u64)> = stream(&floats).collect();
        filters.extend(filter_rows(
            "filter/any_i64",
            &data_i64(n),
            |x| x < lo_i,
            iters,
            reps,
        ));
        filters.extend(filter_rows(
            "filter/any_f64",
            &floats,
            |x| x < lo,
            iters,
            reps,
        ));
        filters.extend(filter_rows(
            "filter/any_pair",
            &pairs,
            |x| (x.0 >= hi) | (x.0 <= lo),
            iters,
            reps,
        ));
    }

    // A sixteenth of the other rows' work: translating into a `MinK(100)`
    // state costs about 100 ns an element.
    let translate_data = data_i64(TRANSLATE_N);
    let translate_iters = (work / TRANSLATE_N as u64 / 16).max(1) as u32;
    let mut translates = vec![translate_cell(
        "sum_i64",
        &sum::<i64>(),
        &translate_data,
        translate_iters,
        runs_reps,
    )];
    translates.extend(TRANSLATE_KS.map(|k| {
        translate_cell(
            &format!("mink{k}_i64"),
            &MinK::<i64>::new(k),
            &translate_data,
            translate_iters,
            runs_reps,
        )
    }));

    if csv {
        println!("cell,n,scalar_ns_per_elem,kernel_ns_per_elem,speedup,gated");
        for c in &cells {
            println!(
                "{},{},{:.4},{:.4},{:.3},{}",
                c.name,
                c.n,
                c.scalar_ns,
                c.kernel_ns,
                c.speedup(),
                c.gated
            );
        }
        for (c, verdict) in &derived {
            println!(
                "{},{},{:.4},{:.4},{:.3},{}",
                c.name,
                c.n,
                c.scalar_ns,
                c.kernel_ns,
                c.speedup(),
                verdict
            );
        }
        for (parts, (split, unsplit)) in &segmenting {
            println!("split_u64/S{parts},{state_len},,{split:.4},,false");
            println!("unsplit_u64/S{parts},{state_len},,{unsplit:.4},,false");
        }
        for (k, ns) in &counting {
            println!("count_into/k{k},{},,{ns:.4},,false", is_keys.len());
        }
        for (name, reused, fresh) in &outputs {
            for (landed, (ns, faults)) in [("reused", reused), ("fresh", fresh)] {
                println!("output/{name}/{landed},{output_n},,{ns:.4},,false");
                if let Some(faults) = faults {
                    println!("output/{name}/{landed}_faults,{output_n},,{faults},,false");
                }
            }
        }
        for (n, tiers) in &fills {
            for (tier, ns) in tiers {
                println!("randlc/fill/{},{n},,{ns:.4},,false", tier.name());
            }
        }
        for row in &filters {
            for (tier, ns) in &row.tiers {
                println!(
                    "{}/{}/{},{},,{ns:.4},,false",
                    row.name,
                    row.form,
                    tier.name(),
                    row.n
                );
            }
            if let Some(ns) = row.dispatched {
                println!("{}/dispatched,{},,{ns:.4},,false", row.name, row.n);
            }
        }
        for c in &translates {
            println!(
                "{},{},{:.4},{:.4},{:.3},false",
                c.name,
                c.n,
                c.scalar_ns,
                c.kernel_ns,
                c.speedup()
            );
        }
        println!("geomean_gated,,,,{gate:.3},");
        println!("verdict,,,,{},", if pass { "PASS" } else { "FAIL" });
    } else {
        println!("Block-kernel microbenchmark: vectorized kernels vs forced scalar loop");
        println!(
            "(ns per element, best of {reps} rep(s); isa tier = {}; integer cells verified \
             bit-identical, float cells verified deterministic)\n",
            gv_core::kernel::isa_tier().name()
        );
        println!(
            "  {:<24} {:>8} {:>12} {:>12} {:>9}  gate",
            "cell", "n", "scalar", "kernel", "speedup"
        );
        for c in &cells {
            println!(
                "  {:<24} {:>8} {:>9.2} ns {:>9.2} ns {:>8.2}x  {}",
                c.name,
                c.n,
                c.scalar_ns,
                c.kernel_ns,
                c.speedup(),
                if c.gated { "*" } else { "" }
            );
        }
        println!(
            "\n  derived kernel `accum_runs` ({} identity states per {}-element block, combined in \
             order) against the scalar loop\n  (ns per element, best of {} alternating rep(s); not \
             gated — \
             an operator opts in at 1.25x or better)",
            gv_core::kernel::RUNS,
            gv_core::kernel::BLOCK,
            runs_reps
        );
        println!(
            "  {:<24} {:>8} {:>12} {:>12} {:>9}  verdict",
            "cell", "n", "scalar", "runs", "speedup"
        );
        for (c, verdict) in &derived {
            println!(
                "  {:<24} {:>8} {:>9.2} ns {:>9.2} ns {:>8.2}x  {}",
                c.name,
                c.n,
                c.scalar_ns,
                c.kernel_ns,
                c.speedup(),
                verdict
            );
        }
        println!(
            "\n  segmenting a {state_len}-element Vec<u64> state (ns per element, best of runs; \
             not gated — linear means flat in S)"
        );
        // These rows allocate megabytes per run, so glibc's moving mmap
        // and trim thresholds can dominate them; say which regime this is.
        let pin = |name| std::env::var(name).unwrap_or_else(|_| "default".into());
        println!(
            "  (MALLOC_MMAP_THRESHOLD_ = {}, MALLOC_TRIM_THRESHOLD_ = {})",
            pin("MALLOC_MMAP_THRESHOLD_"),
            pin("MALLOC_TRIM_THRESHOLD_")
        );
        println!(
            "  {:<24} {:>8} {:>12} {:>12}",
            "cell", "S", "split", "unsplit"
        );
        for (parts, (split, unsplit)) in &segmenting {
            println!(
                "  {:<24} {:>8} {:>9.2} ns {:>9.2} ns",
                "segments/vec_u64", parts, split, unsplit
            );
        }
        println!(
            "\n  counting {} NAS IS class A keys into a k-entry u64 table (ns per key, best of \
             runs; not gated — the plain loop `count_into` runs above its replicated-table bound)",
            is_keys.len()
        );
        println!("  {:<24} {:>8} {:>12}", "cell", "k", "count_into");
        for (k, ns) in &counting {
            println!("  {:<24} {:>8} {:>9.2} ns", "count_into/is_keys", k, ns);
        }
        println!(
            "\n  landing {output_n} outputs in a buffer that is already mapped, and in one the call \
             allocates and its caller drops\n  (ns per element, best of {output_reps}, and minor \
             page faults per call; not gated — the gap is the page-fault tax)"
        );
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        println!(
            "  (transparent_hugepage/enabled = {}; MALLOC_MMAP_THRESHOLD_ = {}, \
             MALLOC_TRIM_THRESHOLD_ = {})",
            thp.as_deref().map_or("unavailable", str::trim),
            pin("MALLOC_MMAP_THRESHOLD_"),
            pin("MALLOC_TRIM_THRESHOLD_")
        );
        println!(
            "  {:<24} {:>12} {:>8} {:>12} {:>8}",
            "cell", "reused", "faults", "fresh", "faults"
        );
        let count = |faults: &Option<u64>| faults.map_or("-".into(), |f| f.to_string());
        for (name, (reused_ns, reused_faults), (fresh_ns, fresh_faults)) in &outputs {
            println!(
                "  {:<24} {:>9.2} ns {:>8} {:>9.2} ns {:>8}",
                format!("output/{name}"),
                reused_ns,
                count(reused_faults),
                fresh_ns,
                count(fresh_faults)
            );
        }
        let tier_names: Vec<&str> = IsaTier::available()
            .iter()
            .map(|tier| tier.name())
            .collect();
        let tier_header: String = tier_names
            .iter()
            .map(|name| format!(" {name:>12}"))
            .collect();
        let tier_cells = |tiers: &[(IsaTier, f64)]| -> String {
            tiers
                .iter()
                .map(|(_, ns)| format!(" {ns:>9.2} ns"))
                .collect()
        };
        println!(
            "\n  `Randlc::fill`, n variates from the NAS seed: the one-chain loop (the portable \
             tier) and {} lanes on each vector tier, called directly\n  (ns per variate, best of \
             {reps}; every tier verified bit-identical in values and final state; not gated — a \
             tier is dispatched to only where it beats the chain)",
            gv_nas::randlc::FILL_LANES
        );
        println!("  {:<24} {:>8}{tier_header}", "cell", "n");
        for (n, tiers) in &fills {
            println!("  {:<24} {:>8}{}", "randlc/fill", n, tier_cells(tiers));
        }
        println!(
            "\n  `any_in_block` over n elements, asked {BLOCK} at a time, none passing: its two \
             loop forms on each tier, called directly, and the library's dispatched kernel\n  (ns \
             per element, best of {reps}; not gated — a tier compiles the form that reads lower, \
             and is dispatched to only where that beats the portable `or`)"
        );
        println!(
            "  {:<24} {:>8} {:>6}{tier_header} {:>12}",
            "cell", "n", "form", "dispatched"
        );
        for row in &filters {
            println!(
                "  {:<24} {:>8} {:>6}{} {:>12}",
                row.name,
                row.n,
                row.form,
                tier_cells(&row.tiers),
                row.dispatched
                    .map_or(String::new(), |ns| format!("{ns:.2} ns"))
            );
        }
        println!(
            "\n  accumulating each input into the state against translating it into a state of \
             its own and combining that (`Translated`), through `seq::reduce`\n  (ns per element, \
             best of {runs_reps} alternating rep(s); both forms verified equal; not gated — paper \
             §3: translating \"would result in worse performance\")"
        );
        println!(
            "  {:<24} {:>8} {:>12} {:>12} {:>12} {:>9}",
            "cell", "n", "translate", "accumulate", "extra", "slower"
        );
        for c in &translates {
            println!(
                "  {:<24} {:>8} {:>9.2} ns {:>9.2} ns {:>9.2} ns {:>8.2}x",
                c.name,
                c.n,
                c.scalar_ns,
                c.kernel_ns,
                c.scalar_ns - c.kernel_ns,
                c.speedup()
            );
        }
        println!(
            "\ngeomean over gated (*) cells: {gate:.2}x (target {TARGET:.0}x) => {}",
            if pass { "PASS" } else { "FAIL" }
        );
    }

    if !pass && !quick {
        std::process::exit(1);
    }
}
