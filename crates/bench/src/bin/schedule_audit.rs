//! Experiment TXT-AUDIT: which collective schedule each end-to-end run
//! runs, so that every schedule the runtime keeps names a run it serves.
//!
//! The first table counts, per `(family, schedule)`, the calls the
//! runtime's counters record while the bodies of FIG2, FIG3,
//! `mpi_call_stats` and the three NAS drivers run at p = 2 and p = 16,
//! each at its smallest class. The scan row is every `Scan` and `Exscan`
//! call, since a scan has only recursive doubling; the broadcast row is
//! every `Bcast` call, since a broadcast has only the tree.
//!
//! The second table lists every collective call the six benchmark
//! workloads make — its operator, wire bytes and commutativity — with the
//! schedule it runs at p = 2 (the benchmark's wall-clock runs) and p = 16
//! (its modeled runs). The calls are constants here, named by workload:
//! the benchmark is a package of its own that this crate does not link.
//!
//! Modeled and deterministic; recorded in `results/schedule_audit.txt`.
//!
//! Usage: schedule_audit

use std::mem::size_of;

use gv_core::ops::stats::MomentState;
use gv_core::ops::SortedState;
use gv_msgpass::{AllreduceAlgorithm, CallKind, Runtime, StatsSnapshot};
use gv_nas::cg::{solve, CgBlock};
use gv_nas::is::{distributed_sort, generate_keys, key_ranks, run_is, VerifyVariant};
use gv_nas::mg::vcycle::v_cycle;
use gv_nas::mg::zran3::{zran3, Zran3Variant};
use gv_nas::mg::Slab;
use gv_nas::{IsClass, MgClass};

/// The two rank counts every column is read at.
const PROCS: [usize; 2] = [2, 16];

/// NAS MG: ZRAN3 (`variant`) followed by the class's V-cycles.
fn mg_body(comm: &gv_msgpass::Comm, variant: Zran3Variant) {
    let class = MgClass::S;
    let mut v = Slab::for_rank(class.n, comm.rank(), comm.size());
    zran3(comm, &mut v, 10, variant);
    let mut u = Slab::for_rank(class.n, comm.rank(), comm.size());
    let mut r = v.clone();
    for _ in 0..class.iterations {
        v_cycle(comm, &mut u, &v, &mut r);
    }
}

/// A CG solve of `n` unknowns, `iterations` iterations.
fn cg_body(comm: &gv_msgpass::Comm, n: usize, iterations: usize) {
    let b = CgBlock::from_fn(comm, n, |i| ((i % 7) as f64) - 3.0);
    let mut x = CgBlock::zeros(comm, n);
    solve(comm, &b, &mut x, iterations);
}

/// One end-to-end source: its name and its body at `p` ranks, as the
/// counters of the runs it makes.
type Source = (&'static str, fn(usize) -> Vec<StatsSnapshot>);

const SOURCES: [Source; 6] = [
    // Figure 2: sort, then each of the three verifications.
    ("FIG2", |p| {
        let run = |comm: &gv_msgpass::Comm| {
            let keys = generate_keys(IsClass::S, comm.rank(), comm.size());
            let block = distributed_sort(comm, &keys, IsClass::S.max_key());
            for (variant, _) in VerifyVariant::ALL {
                variant.verify(comm, &block.keys);
            }
        };
        vec![Runtime::new(p).run(run).stats]
    }),
    // Figure 3: ZRAN3 in both variants.
    ("FIG3", |p| {
        let run = Runtime::new(p).run(|comm| {
            for (variant, _) in Zran3Variant::ALL {
                let mut slab = Slab::for_rank(MgClass::S.n, comm.rank(), comm.size());
                zran3(comm, &mut slab, 10, variant);
            }
        });
        vec![run.stats]
    }),
    // `mpi_call_stats`: the reference MPI-style IS, MG and a CG kernel.
    ("calls", |p| {
        let is = Runtime::new(p).run(|comm| {
            run_is(comm, IsClass::S, VerifyVariant::NasMpi);
        });
        let mg = Runtime::new(p).run(|comm| mg_body(comm, Zran3Variant::Mpi));
        let cg = Runtime::new(p).run(|comm| cg_body(comm, 16_384, 75));
        vec![is.stats, mg.stats, cg.stats]
    }),
    ("nas_is", |p| {
        let run = Runtime::new(p).run(|comm| {
            let keys = generate_keys(IsClass::S, comm.rank(), comm.size());
            let block = distributed_sort(comm, &keys, IsClass::S.max_key());
            key_ranks(&block);
            VerifyVariant::Rsmpi.verify(comm, &block.keys);
        });
        vec![run.stats]
    }),
    ("nas_mg", |p| {
        vec![
            Runtime::new(p)
                .run(|comm| mg_body(comm, Zran3Variant::Rsmpi))
                .stats,
        ]
    }),
    ("nas_cg", |p| {
        vec![Runtime::new(p).run(|comm| cg_body(comm, 16_384, 64)).stats]
    }),
];

/// A collective family, as it picks a schedule.
enum Family {
    Allreduce,
    /// `iallreduce`: commutative → the rotated tree, else recursive
    /// doubling.
    Request,
    Scan,
}

/// One collective call a benchmark workload makes.
struct BenchCall {
    workload: &'static str,
    call: &'static str,
    family: Family,
    bytes: usize,
    commutative: bool,
}

const fn call(
    workload: &'static str,
    call: &'static str,
    family: Family,
    bytes: usize,
    commutative: bool,
) -> BenchCall {
    BenchCall {
        workload,
        call,
        family,
        bytes,
        commutative,
    }
}

/// 131 072 `u64` buckets, `large_state`'s `Counts` and `BucketRank`.
const LARGE: usize = 131_072 * 8;
/// `TopBottomK<f64, u64>` at k = 10, both lists full: 2k entries and
/// two length words.
const TOP_BOTTOM_10: usize = 2 * 10 * size_of::<(f64, u64)>() + 2 * size_of::<usize>();

const BENCH_CALLS: [BenchCall; 14] = [
    call("is_sort", "local_xscan, key count", Family::Scan, 8, true),
    call(
        "is_sort",
        "reduce_all, Sorted<u32>",
        Family::Allreduce,
        size_of::<SortedState<u32>>(),
        false,
    ),
    call(
        "mg_zran3",
        "reduce_all, TopBottomK k=10",
        Family::Allreduce,
        TOP_BOTTOM_10,
        true,
    ),
    call("cg_solve", "dot, f64 sum", Family::Allreduce, 8, true),
    call(
        "local_heavy",
        "reduce_all, sum<f64>",
        Family::Allreduce,
        8,
        true,
    ),
    call(
        "local_heavy",
        "reduce_all, min<i64>",
        Family::Allreduce,
        8,
        true,
    ),
    call("local_heavy", "scan, sum<i64>", Family::Scan, 8, true),
    call("local_heavy", "scan, min<f64>", Family::Scan, 8, true),
    call(
        "local_heavy",
        "reduce_all, MeanVar",
        Family::Allreduce,
        size_of::<MomentState>(),
        true,
    ),
    call(
        "local_heavy",
        "reduce_all, MinK<i64> k=10",
        Family::Allreduce,
        10 * 8,
        true,
    ),
    call(
        "large_state",
        "reduce_all (alias), Counts",
        Family::Allreduce,
        LARGE,
        true,
    ),
    call(
        "large_state",
        "reduce_all, Counts",
        Family::Allreduce,
        LARGE,
        true,
    ),
    call(
        "large_state",
        "scan (alias), BucketRank",
        Family::Scan,
        LARGE,
        true,
    ),
    call(
        "overlap",
        "ireduce_all, Counts",
        Family::Request,
        8192 * 8,
        true,
    ),
];

/// `(family, schedule)`: what the runtime runs for one call.
type Plan = (&'static str, &'static str);

/// The plan the runtime runs for `c`, at any number of ranks: recursive
/// doubling, except a commutative request's tree.
fn pick(c: &BenchCall) -> Plan {
    match c.family {
        Family::Request if c.commutative => ("allreduce", "tree"),
        Family::Allreduce | Family::Request => ("allreduce", "recursive-doubling"),
        Family::Scan => ("scan", "recursive-doubling"),
    }
}

/// One row of the first table: its label and how it reads a snapshot.
type Row = (&'static str, &'static str, fn(&StatsSnapshot) -> u64);

const ROWS: [Row; 4] = [
    ("allreduce", "recursive-doubling", |s| {
        s.allreduce_algorithm_calls(AllreduceAlgorithm::RecursiveDoubling)
    }),
    ("allreduce", "tree", |s| {
        s.allreduce_algorithm_calls(AllreduceAlgorithm::ReduceBroadcast)
    }),
    ("scan", "recursive-doubling", |s| {
        s.calls(CallKind::Scan) + s.calls(CallKind::Exscan)
    }),
    ("bcast", "tree", |s| s.calls(CallKind::Bcast)),
];

fn main() {
    let runs: Vec<[Vec<StatsSnapshot>; 2]> =
        SOURCES.iter().map(|(_, body)| PROCS.map(body)).collect();
    let picks: Vec<Plan> = BENCH_CALLS.iter().map(pick).collect();

    println!("TXT-AUDIT — collective calls per schedule in the end-to-end runs, p = 2 / p = 16");
    println!("(before the selector was deleted this table had four more rows, the segmented");
    println!("allreduce and bcast trees, the binomial scan and the reduce-scatter + allgather;");
    println!("the end-to-end bodies read 0 / 0 on each, and the bench calls 0 / 1 on the");
    println!("reduce-scatter and the chain scan, both at large_state's p = 16)\n");
    print!("  {:<9} | {:<18}", "family", "schedule");
    for (name, _) in &SOURCES {
        print!(" | {name:>9}");
    }
    println!(" | bench calls");
    for (family, schedule, read) in ROWS {
        print!("  {family:<9} | {schedule:<18}");
        for run in &runs {
            // Every rank records a collective call once.
            let calls = |i: usize| run[i].iter().map(read).sum::<u64>() / PROCS[i] as u64;
            print!(" | {:>9}", format!("{} / {}", calls(0), calls(1)));
        }
        let picked = picks.iter().filter(|&&pk| pk == (family, schedule)).count();
        println!(" | {picked} / {picked}");
    }

    println!("\n  the benchmark workloads' collective calls, and the schedule each runs at");
    println!("  p = 2 and p = 16:\n");
    println!(
        "  {:<11} | {:<29} | {:>7} | {:>4} | schedule",
        "workload", "call", "bytes", "comm"
    );
    for (c, (family, schedule)) in BENCH_CALLS.iter().zip(&picks) {
        println!(
            "  {:<11} | {:<29} | {:>7} | {:>4} | {family} {schedule}",
            c.workload,
            c.call,
            c.bytes,
            if c.commutative { "yes" } else { "no" },
        );
    }
}
