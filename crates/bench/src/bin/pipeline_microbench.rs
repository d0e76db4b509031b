//! Experiment TXT-PIPELINE: the segmented tree at the cost model's S vs
//! its whole-state (S = 1) self, schedule × state size × rank count.
//!
//! Three comparisons, all on a splittable `Vec<u64>` state:
//!
//! * `bcast` — the tree broadcast at S = 1 vs at the cost model's S
//!   (`bcast_pipelined`);
//! * `reduce` — the tree reduce at S = 1 vs at the cost model's S;
//! * `allred-tree` — recursive doubling (the best fixed whole-state
//!   schedule for a non-commutative operator) vs the fused tree
//!   allreduce (reduce up, broadcast down, overlapped).
//!
//! Each cell reports the modeled parallel time of both schedules, the
//! segment count the cost model chose, and the speedup. The table also
//! cross-checks the selector: for every cell it routes the same state
//! through the cost-driven `*_splittable` entry point and asserts the
//! selected schedule is within 5% of the best fixed schedule measured —
//! the "selector never loses badly" acceptance bound. The ≥2× headline
//! bound applies to `bcast` and `allred-tree` at ≥256 KiB, p ≥ 8.
//!
//! Modeled times come from the deterministic virtual clock, so the table
//! is bit-reproducible and recorded in `results/pipeline_microbench.txt`.
//! Allocation-pool counters are *observed* mechanics (hit/miss depends on
//! thread interleaving), so they are printed only under `--pool` and are
//! excluded from the recorded artifact. So is `--wall`: the same three
//! columns on the host clock at p = 2, where a rank's local copying shows
//! that the modeled clock does not price.
//!
//! Usage: pipeline_microbench [--procs 2,4,8,16] [--csv] [--pool] [--wall]
//! Env:   GV_BENCH_QUICK=1 shrinks the sweep for CI smoke runs.

use std::time::Instant;

use gv_bench::table::{has_flag, parallel_time, parse_procs, timed_phase};
use gv_core::split::{split_vec_segments as split, unsplit_vec_segments as unsplit};
use gv_msgpass::{BcastAlgorithm, Comm, CostModel, Runtime};

/// State sizes swept, in bytes (the state is a Vec<u64> of size/8 slots).
const SIZES: [usize; 4] = [4 << 10, 64 << 10, 256 << 10, 1 << 20];

// The collectives take `Fn(&S) -> usize` with `S = Vec<u64>`.
#[allow(clippy::ptr_arg)]
fn wire(v: &Vec<u64>) -> usize {
    v.len() * 8
}

fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// One collective call on a `Vec<u64>` state of `elems` slots; the
/// second argument is the tree's segment count, for the column that
/// takes one.
type Call = fn(&Comm, usize, usize);

/// The three columns of one comparison.
struct Comparison {
    name: &'static str,
    /// The whole-state baseline.
    mono: Call,
    /// The tree at the cost model's `S`.
    piped: Call,
    /// The cost-driven `*_splittable` entry point.
    selected: Call,
}

const COMPARISONS: [Comparison; 3] = [
    Comparison {
        name: "bcast",
        mono: |c, elems, _| {
            c.bcast_vec(0, root_value(c, elems));
        },
        piped: |c, elems, s| {
            let value = root_value(c, elems);
            c.bcast_pipelined(0, value, s, split, unsplit, wire);
        },
        selected: |c, elems, _| {
            let value = root_value(c, elems);
            c.bcast_splittable(0, value, elems * 8, split, unsplit, wire);
        },
    },
    Comparison {
        name: "reduce",
        mono: |c, elems, _| {
            c.reduce(0, vec![1u64; elems], wire, add);
        },
        piped: |c, elems, s| {
            let state = vec![1u64; elems];
            c.reduce_pipelined(0, state, s, split, unsplit, wire, add);
        },
        selected: |c, elems, _| {
            let state = vec![1u64; elems];
            c.reduce_splittable(0, state, split, unsplit, wire, add);
        },
    },
    // Recursive doubling (the best fixed whole-state schedule for a
    // non-commutative operator) vs the fused tree. The selector is routed
    // with a *non-commutative* declaration: the segmented tree and
    // recursive doubling are the eligible schedules, so this cell checks
    // exactly the crossover the tree allreduce was added for.
    Comparison {
        name: "allred-tree",
        mono: |c, elems, _| {
            c.allreduce_recursive_doubling(vec![1u64; elems], wire, add);
        },
        piped: |c, elems, s| {
            let state = vec![1u64; elems];
            c.allreduce_pipelined_tree(state, s, split, unsplit, wire, add);
        },
        selected: |c, elems, _| {
            let state = vec![1u64; elems];
            c.allreduce_splittable(state, false, split, unsplit, wire, add);
        },
    },
];

fn root_value(comm: &Comm, elems: usize) -> Option<Vec<u64>> {
    (comm.rank() == 0).then(|| vec![1u64; elems])
}

fn tree_segments(p: usize, bytes: usize) -> usize {
    BcastAlgorithm::tree_segments(&CostModel::default(), p, bytes)
}

/// One schedule comparison in modeled seconds, and the segment count the
/// pipelined run used.
struct Cell {
    mono: f64,
    piped: f64,
    selected: f64,
    segments: usize,
}

fn measure(schedule: &Comparison, p: usize, bytes: usize) -> Cell {
    let segments = tree_segments(p, bytes);
    let modeled = |call: Call| {
        let outcome =
            Runtime::new(p).run(move |comm| timed_phase(comm, |c| call(c, bytes / 8, segments)).1);
        parallel_time(&outcome.results)
    };
    Cell {
        mono: modeled(schedule.mono),
        piped: modeled(schedule.piped),
        selected: modeled(schedule.selected),
        segments,
    }
}

/// Untimed reps at the head of every `--wall` run (thread placement,
/// allocator and envelope-pool warm-up).
const WALL_WARM_UP: usize = 5;

/// Host wall-clock of the same three columns at p = 2 — what a caller
/// waits, which the modeled table above cannot show (it prices messages,
/// not the copying a rank does between them). Each rep is timed from a
/// barrier to the slower rank's return, state construction included (it
/// is the same in every column). Timing-dependent, hence printed outside
/// the recorded table.
fn wall_report(reps: usize) {
    let p = 2;
    eprintln!(
        "  {:>11} | {:>7} | {:>3} | {:>18} | {:>18} | {:>18}",
        "schedule", "size", "S", "whole-state", "tree at S", "selected"
    );
    for schedule in &COMPARISONS {
        for &bytes in &SIZES[1..] {
            let segments = tree_segments(p, bytes);
            let wall = |call: Call| {
                let outcome = Runtime::new(p).run(move |comm| {
                    (0..reps + WALL_WARM_UP)
                        .map(|_| {
                            comm.barrier();
                            let started = Instant::now();
                            call(comm, bytes / 8, segments);
                            started.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                });
                let mut slower: Vec<f64> = outcome.results[0]
                    .iter()
                    .zip(&outcome.results[1])
                    .skip(WALL_WARM_UP)
                    .map(|(a, b)| a.max(*b))
                    .collect();
                slower.sort_by(f64::total_cmp);
                format!(
                    "{:>6.1} / {:>6.1} µs",
                    slower[reps / 10] * 1e6,
                    slower[reps / 2] * 1e6
                )
            };
            eprintln!(
                "  {:>11} | {:>7} | {:>3} | {} | {} | {}",
                schedule.name,
                fmt_size(bytes),
                segments,
                wall(schedule.mono),
                wall(schedule.piped),
                wall(schedule.selected),
            );
        }
    }
}

/// Observed allocation-pool counters: a queued-heavy point-to-point ring
/// run twice, pooling on and off. Timing-dependent (a hit requires the
/// receiver to have recycled a box before the next send), hence printed
/// outside the recorded table.
fn pool_report(rounds: usize) {
    for pooling in [true, false] {
        let outcome = Runtime::new(2)
            .packet_pooling(pooling)
            .run(move |comm| {
                let peer = 1 - comm.rank();
                // 4 KiB payloads: far over the eager threshold, so every
                // send takes the queued (boxed-envelope) path.
                for _ in 0..rounds {
                    comm.send_vec(peer, 7, vec![comm.rank() as u64; 512]);
                    comm.recv::<Vec<u64>>(peer, 7);
                }
            });
        let t = &outcome.stats.transport;
        eprintln!(
            "  pooling {}: queued_sends={} pool_hits={} pool_misses={}",
            if pooling { "on " } else { "off" },
            t.queued_sends,
            t.pool_hits,
            t.pool_misses
        );
    }
}

fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else {
        format!("{} KiB", bytes >> 10)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let quick = std::env::var("GV_BENCH_QUICK").is_ok_and(|v| v != "0");
    let procs = if quick {
        vec![8]
    } else {
        match args.iter().position(|a| a == "--procs") {
            Some(_) => parse_procs(&args),
            None => vec![2, 4, 8, 16],
        }
    };
    let sizes: &[usize] = if quick { &SIZES[1..3] } else { &SIZES };

    if csv {
        println!("schedule,procs,bytes,segments,monolithic_seconds,pipelined_seconds,selected_seconds,speedup");
    } else {
        println!("TXT-PIPELINE — segment-pipelined schedules vs monolithic (splittable Vec<u64> state)\n");
        println!(
            "  {:>11} | {:>5} | {:>7} | {:>3} | {:>12} | {:>12} | {:>12} | speedup",
            "schedule", "p", "size", "S", "monolithic", "pipelined", "selected"
        );
    }

    for schedule in &COMPARISONS {
        let name = schedule.name;
        for &p in &procs {
            for &bytes in sizes {
                let cell = measure(schedule, p, bytes);
                let speedup = cell.mono / cell.piped;
                if csv {
                    println!(
                        "{name},{p},{bytes},{},{:.9},{:.9},{:.9},{speedup:.3}",
                        cell.segments, cell.mono, cell.piped, cell.selected
                    );
                } else {
                    println!(
                        "  {:>11} | {:>5} | {:>7} | {:>3} | {:>9.1} µs | {:>9.1} µs | {:>9.1} µs | {speedup:.2}×",
                        name,
                        p,
                        fmt_size(bytes),
                        cell.segments,
                        cell.mono * 1e6,
                        cell.piped * 1e6,
                        cell.selected * 1e6,
                    );
                }
                // Selector acceptance: never lose more than 5% to the
                // best fixed schedule at any measured point (barriers in
                // timed_phase add identical overhead to every column).
                let best = cell.mono.min(cell.piped);
                assert!(
                    cell.selected <= best * 1.05 + 1e-9,
                    "{name} p={p} {}: selector {:.3e}s vs best fixed {:.3e}s",
                    fmt_size(bytes),
                    cell.selected,
                    best
                );
                // Headline acceptance: ≥2× on bcast/allreduce for states
                // ≥256 KiB at p ≥ 8.
                if (name == "bcast" || name == "allred-tree") && bytes >= 256 << 10 && p >= 8 {
                    assert!(
                        speedup >= 2.0,
                        "{name} p={p} {}: pipelining only {speedup:.2}×",
                        fmt_size(bytes)
                    );
                }
            }
        }
    }

    if has_flag(&args, "--pool") {
        eprintln!("\n  observed packet-pool counters (timing-dependent, not recorded):");
        pool_report(if quick { 50 } else { 500 });
    }
    if has_flag(&args, "--wall") {
        eprintln!("\n  host wall clock at p = 2, p10 / median (timing-dependent, not recorded):");
        wall_report(if quick { 20 } else { 200 });
    }
}
