//! Experiment TXT-AUDIT: which collective schedule each end-to-end run
//! selects, so that every schedule the runtime keeps names a run it
//! serves.
//!
//! The first table counts, per `(family, schedule, S)`, the calls the
//! runtime's per-schedule counters record while the bodies of FIG2, FIG3,
//! `mpi_call_stats` and the three NAS drivers run at p = 2 and p = 16.
//! Each body runs at its smallest class: a pick reads the state's wire
//! size, which the class does not change (the `Sorted` and `TopBottomK`
//! states, the key-count scan and CG's dot products are the same size at
//! every class). The broadcast row is every `Bcast` call, since a
//! broadcast has only the tree.
//!
//! The second table lists every collective call the six benchmark
//! workloads make — as the operator, wire bytes, commutativity and
//! splittability the selector is handed — with the plan it picks at p = 2
//! (the benchmark's wall-clock runs) and p = 16 (its modeled runs). The
//! calls are constants here, named by workload: the benchmark is a
//! package of its own that this crate does not link.
//!
//! Modeled and deterministic; recorded in `results/schedule_audit.txt`.
//!
//! Usage: schedule_audit

use std::mem::size_of;

use gv_core::ops::stats::MomentState;
use gv_core::ops::SortedState;
use gv_msgpass::{AllreduceAlgorithm, CallKind, CostModel, Runtime, ScanAlgorithm, StatsSnapshot};
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

/// A collective family as the selector sees it.
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
    splittable: bool,
}

const fn call(
    workload: &'static str,
    call: &'static str,
    family: Family,
    bytes: usize,
    (commutative, splittable): (bool, bool),
) -> BenchCall {
    BenchCall {
        workload,
        call,
        family,
        bytes,
        commutative,
        splittable,
    }
}

/// 131 072 `u64` buckets, `large_state`'s `Counts` and `BucketRank`.
const LARGE: usize = 131_072 * 8;
/// `TopBottomK<f64, u64>` at k = 10, both lists full: 2k entries and
/// two length words.
const TOP_BOTTOM_10: usize = 2 * 10 * size_of::<(f64, u64)>() + 2 * size_of::<usize>();

const BENCH_CALLS: [BenchCall; 14] = [
    call(
        "is_sort",
        "local_xscan, key count",
        Family::Scan,
        8,
        (true, false),
    ),
    call(
        "is_sort",
        "reduce_all, Sorted<u32>",
        Family::Allreduce,
        size_of::<SortedState<u32>>(),
        (false, false),
    ),
    call(
        "mg_zran3",
        "reduce_all, TopBottomK k=10",
        Family::Allreduce,
        TOP_BOTTOM_10,
        (true, false),
    ),
    call(
        "cg_solve",
        "dot, f64 sum",
        Family::Allreduce,
        8,
        (true, false),
    ),
    call(
        "local_heavy",
        "reduce_all, sum<f64>",
        Family::Allreduce,
        8,
        (true, false),
    ),
    call(
        "local_heavy",
        "reduce_all, min<i64>",
        Family::Allreduce,
        8,
        (true, false),
    ),
    call(
        "local_heavy",
        "scan, sum<i64>",
        Family::Scan,
        8,
        (true, false),
    ),
    call(
        "local_heavy",
        "scan, min<f64>",
        Family::Scan,
        8,
        (true, false),
    ),
    call(
        "local_heavy",
        "reduce_all, MeanVar",
        Family::Allreduce,
        size_of::<MomentState>(),
        (true, false),
    ),
    call(
        "local_heavy",
        "reduce_all, MinK<i64> k=10",
        Family::Allreduce,
        10 * 8,
        (true, false),
    ),
    call(
        "large_state",
        "reduce_all_splittable, Counts",
        Family::Allreduce,
        LARGE,
        (true, true),
    ),
    call(
        "large_state",
        "reduce_all, Counts",
        Family::Allreduce,
        LARGE,
        (true, false),
    ),
    call(
        "large_state",
        "scan_splittable, BucketRank",
        Family::Scan,
        LARGE,
        (true, true),
    ),
    call(
        "overlap",
        "ireduce_all, Counts",
        Family::Request,
        8192 * 8,
        (true, false),
    ),
];

/// `(family, schedule, segments)`: what the runtime runs for one call.
type Plan = (&'static str, &'static str, usize);

/// The plan the runtime runs for `c` at `p` ranks.
fn pick(c: &BenchCall, p: usize) -> Plan {
    let cost = CostModel::default();
    let algo = match c.family {
        Family::Allreduce => {
            AllreduceAlgorithm::select(&cost, p, c.bytes, c.commutative, c.splittable)
        }
        Family::Request if c.commutative => AllreduceAlgorithm::ReduceBroadcast,
        Family::Request => AllreduceAlgorithm::RecursiveDoubling,
        Family::Scan => {
            let (algo, s) = ScanAlgorithm::select(&cost, p, c.bytes, c.splittable);
            return ("scan", algo.name(), s);
        }
    };
    ("allreduce", allreduce_name(algo), 1)
}

fn allreduce_name(algo: AllreduceAlgorithm) -> &'static str {
    match algo {
        AllreduceAlgorithm::ReduceBroadcast => "tree",
        algo => algo.name(),
    }
}

/// One row of the first table: its label and how it reads a snapshot.
type Row = (
    &'static str,
    &'static str,
    &'static str,
    fn(&StatsSnapshot) -> u64,
);

const ROWS: [Row; 7] = [
    ("allreduce", "recursive-doubling", "1", |s| {
        s.allreduce_algorithm_calls(AllreduceAlgorithm::RecursiveDoubling)
    }),
    ("allreduce", "reduce-scatter+allgather", "1", |s| {
        s.allreduce_algorithm_calls(AllreduceAlgorithm::ReduceScatterAllgather)
    }),
    ("allreduce", "tree", "1", |s| {
        s.allreduce_algorithm_calls(AllreduceAlgorithm::ReduceBroadcast)
    }),
    ("scan", "recursive-doubling", "1", |s| {
        s.scan_algorithm_calls(ScanAlgorithm::RecursiveDoubling)
    }),
    ("scan", "binomial", "1", |s| {
        s.scan_algorithm_calls(ScanAlgorithm::Binomial)
    }),
    ("scan", "pipelined-chain", "≥ 1", |s| {
        s.scan_algorithm_calls(ScanAlgorithm::PipelinedChain)
    }),
    ("bcast", "tree", "1", |s| s.calls(CallKind::Bcast)),
];

fn main() {
    let runs: Vec<[Vec<StatsSnapshot>; 2]> =
        SOURCES.iter().map(|(_, body)| PROCS.map(body)).collect();
    let picks: Vec<[Plan; 2]> = BENCH_CALLS
        .iter()
        .map(|c| PROCS.map(|p| pick(c, p)))
        .collect();

    println!("TXT-AUDIT — collective calls per schedule in the end-to-end runs, p = 2 / p = 16");
    println!("(before the segmented tree was deleted this table had two more rows, the");
    println!("allreduce and the bcast tree at S > 1, and both read 0 / 0 in every column)\n");
    print!("  {:<9} | {:<24} | {:>3}", "family", "schedule", "S");
    for (name, _) in &SOURCES {
        print!(" | {name:>9}");
    }
    println!(" | bench calls");
    for (family, schedule, s, read) in ROWS {
        print!("  {family:<9} | {schedule:<24} | {s:>3}");
        for run in &runs {
            // Every rank records a collective call once.
            let calls = |i: usize| run[i].iter().map(read).sum::<u64>() / PROCS[i] as u64;
            print!(" | {:>9}", format!("{} / {}", calls(0), calls(1)));
        }
        let picked = |i: usize| {
            let same = |pk: &&[Plan; 2]| pk[i].0 == family && pk[i].1 == schedule;
            picks.iter().filter(same).count()
        };
        println!(" | {} / {}", picked(0), picked(1));
    }

    println!("\n  the benchmark workloads' collective calls, and the plan each runs:\n");
    println!(
        "  {:<11} | {:<29} | {:>7} | {:>4} | {:>5} | {:<28} | p = 16",
        "workload", "call", "bytes", "comm", "split", "p = 2"
    );
    let plan = |(family, schedule, s): Plan| match s {
        1 => format!("{family} {schedule}"),
        s => format!("{family} {schedule}, S = {s}"),
    };
    for (c, [at2, at16]) in BENCH_CALLS.iter().zip(&picks) {
        println!(
            "  {:<11} | {:<29} | {:>7} | {:>4} | {:>5} | {:<28} | {}",
            c.workload,
            c.call,
            c.bytes,
            if c.commutative { "yes" } else { "no" },
            if c.splittable { "yes" } else { "no" },
            plan(*at2),
            plan(*at16),
        );
    }
}
