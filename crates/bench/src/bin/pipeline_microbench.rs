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
//! Excluded from the recorded artifact is `--wall`: the same three
//! columns on the host clock at p = 2, where a rank's local copying shows
//! that the modeled clock does not price. And so is `--latency`: what one
//! small message costs at each layer between two bound ranks, as a
//! multiple of a raw cache-line ping-pong read in the same process
//! (EXPERIMENTS.md, TXT-LATENCY).
//!
//! Usage: pipeline_microbench [--procs 2,4,8,16] [--csv] [--wall] [--latency]
//! Env:   GV_BENCH_QUICK=1 shrinks the sweep for CI smoke runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gv_executor::lane::{lane, LaneReceiver, Parker};

use gv_bench::table::{has_flag, parallel_time, parse_procs, timed_phase};
use gv_core::split::{split_vec_segments as split, unsplit_vec_segments as unsplit};
use gv_msgpass::collectives::tree::whole;
use gv_msgpass::{AllreduceAlgorithm, BcastAlgorithm, Comm, CostModel, Runtime};
use gv_nas::cg::{self, CgBlock};

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
            let plan = (AllreduceAlgorithm::RecursiveDoubling, 1);
            c.allreduce_by(plan, vec![1u64; elems], whole(), wire, add);
        },
        piped: |c, elems, s| {
            let plan = (AllreduceAlgorithm::PipelinedTree, s);
            c.allreduce_by(plan, vec![1u64; elems], (split, unsplit), wire, add);
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

/// Untimed reps at the head of every `--wall` run (thread placement and
/// allocator warm-up).
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

/// `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

// std links the C library on Linux, so the two calls are declared here,
// as `benchmark/src/pin.rs` declares them, and no crate is needed.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Binds the calling thread to the `index`-th core (modulo their number)
/// it is allowed on, the way the benchmark binds its ranks. On other
/// systems, and when a call fails, the thread stays where it was:
/// binding steadies the reading, nothing depends on it.
#[cfg(target_os = "linux")]
fn bind_to_core(index: usize) {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; the mask is a live, writable
    // buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return;
    }
    let cores: Vec<usize> = (0..allowed.len() * 64)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&core) = cores.get(index % cores.len().max(1)) else {
        return;
    };
    let mut one: CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: as above, and the mask is only read.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
}

#[cfg(not(target_os = "linux"))]
fn bind_to_core(_index: usize) {}

/// Operations per timed batch of a `--latency` row.
const LATENCY_BATCH: usize = 1000;
/// Batches per raw reading (two are taken around every row).
const RAW_BATCHES: usize = 20;
/// Messages in one burst of the burst row (a segmented collective's
/// per-peer burst at the chooser's larger segment counts: two laps of
/// the 32-slot ring).
const BURST: usize = 64;

/// An atomic with a cache-line pair of its own.
#[repr(align(128))]
struct Line(AtomicU64);

/// The floor every row is read against: one cache line each way between
/// two threads, nothing else.
struct RawLink {
    ping: Line,
    pong: Line,
}

impl RawLink {
    fn new() -> Self {
        RawLink {
            ping: Line(AtomicU64::new(0)),
            pong: Line(AtomicU64::new(0)),
        }
    }

    /// One side of the `nth` reading (0, 1, …) over this link; both
    /// threads call it with the same `nth`. The lead's return value is
    /// the median ns per round trip, the echo's is meaningless.
    fn read(&self, lead: bool, nth: usize) -> f64 {
        let rounds = (RAW_BATCHES * LATENCY_BATCH) as u64;
        let mut i = nth as u64 * rounds;
        if !lead {
            for _ in 0..rounds {
                i += 1;
                while self.ping.0.load(Ordering::Acquire) != i {
                    std::hint::spin_loop();
                }
                self.pong.0.store(i, Ordering::Release);
            }
            return 0.0;
        }
        let mut times: Vec<f64> = (0..RAW_BATCHES)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..LATENCY_BATCH {
                    i += 1;
                    self.ping.0.store(i, Ordering::Release);
                    while self.pong.0.load(Ordering::Acquire) != i {
                        std::hint::spin_loop();
                    }
                }
                started.elapsed().as_secs_f64() / LATENCY_BATCH as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[RAW_BATCHES / 2] * 1e9
    }
}

/// One row's batch times (seconds per operation), with the raw reading
/// the same two threads took just before and just after them. Where the
/// host puts the two vCPUs decides the raw reading (tens of ns on one
/// physical core, hundreds across two) and moves whenever a thread
/// sleeps, so only a reading by the row's own threads, without a sleep
/// in between, describes the placement the row ran in.
struct Reading {
    raw_before: f64,
    raw_after: f64,
    times: Vec<f64>,
}

impl Reading {
    fn take(link: &RawLink, lead: bool, body: impl FnOnce() -> Vec<f64>) -> Reading {
        Reading {
            raw_before: link.read(lead, 0),
            times: body(),
            raw_after: link.read(lead, 1),
        }
    }
}

/// Batch times (seconds per operation) of `batches` batches of `calls`
/// calls of `op`, one call being `ops` operations; a tenth as many
/// batches run untimed first.
fn time_calls(batches: usize, calls: usize, ops: usize, mut op: impl FnMut()) -> Vec<f64> {
    for _ in 0..batches.div_ceil(10) * calls {
        op();
    }
    (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                op();
            }
            started.elapsed().as_secs_f64() / (calls * ops) as f64
        })
        .collect()
}

/// [`time_calls`] for a row whose operation is one call: batches of
/// [`LATENCY_BATCH`].
fn time_batches(batches: usize, op: impl FnMut()) -> Vec<f64> {
    time_calls(batches, LATENCY_BATCH, 1, op)
}

fn lane_recv_spinning(rx: &mut LaneReceiver<u64>) -> u64 {
    loop {
        if let Some(v) = rx.try_recv() {
            return v;
        }
        std::hint::spin_loop();
    }
}

/// One word each way over a pair of lanes, receivers spinning, on two
/// threads bound to the first two cores: the ring slot and the parker's
/// wake counter, no envelope and no matching.
fn lane_pingpong(batches: usize) -> Reading {
    let link = RawLink::new();
    let (ping_tx, mut ping_rx) = lane::<u64>(32, Arc::new(Parker::new()));
    let (pong_tx, mut pong_rx) = lane::<u64>(32, Arc::new(Parker::new()));
    let link = &link;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            bind_to_core(1);
            Reading::take(link, false, || {
                time_batches(batches, || {
                    let v = lane_recv_spinning(&mut ping_rx);
                    pong_tx.send(v).expect("lead side alive");
                })
            });
        });
        scope
            .spawn(move || {
                bind_to_core(0);
                Reading::take(link, true, || {
                    time_batches(batches, || {
                        ping_tx.send(1).expect("echo side alive");
                        lane_recv_spinning(&mut pong_rx);
                    })
                })
            })
            .join()
            .expect("lead thread")
    })
}

/// A reading of `body`, run by `p` ranks bound to the first `p` cores
/// under an armed watchdog (as the benchmark runs them: an armed board
/// is written on every match): each batch counts as long as its slower
/// rank took (in a scan the first rank only sends, and would read as
/// free). Ranks 0 and 1 bracket it with the raw ping-pong; at p = 1
/// there is no peer and the raw readings are 0.
fn on_ranks(p: usize, body: impl Fn(&Comm) -> Vec<f64> + Sync) -> Reading {
    let link = RawLink::new();
    let mut ranks = Runtime::new(p)
        .watchdog(Duration::from_secs(30))
        .run(|comm| {
            bind_to_core(comm.rank());
            if p == 1 {
                return Reading {
                    raw_before: 0.0,
                    raw_after: 0.0,
                    times: body(comm),
                };
            }
            Reading::take(&link, comm.rank() == 0, || body(comm))
        })
        .results
        .into_iter();
    let mut lead = ranks.next().expect("p >= 1");
    for rank in ranks {
        for (slower, t) in lead.times.iter_mut().zip(rank.times) {
            *slower = slower.max(t);
        }
    }
    lead
}

/// What one small message costs, layer by layer, between two ranks bound
/// to two cores, each row beside the raw cache-line ping-pong its own
/// threads read around it (see [`Reading`]). A row is comparable between
/// two runs, or two builds, only as a multiple of that raw reading.
fn latency_report(batches: usize) {
    const TAG: gv_msgpass::Tag = 7;
    let sum = |a: u64, b: u64| a.wrapping_add(b);
    let pingpong = |comm: &Comm| {
        if comm.rank() == 0 {
            comm.send(1, TAG, 1u64);
            comm.recv::<u64>(1, TAG);
        } else {
            let v: u64 = comm.recv(0, TAG);
            comm.send(0, TAG, v);
        }
    };
    // One way, acknowledged once at the end.
    let burst = |comm: &Comm| {
        if comm.rank() == 0 {
            for i in 0..BURST as u64 {
                comm.send(1, TAG, i);
            }
            comm.recv::<u64>(1, TAG);
        } else {
            for _ in 0..BURST {
                comm.recv::<u64>(0, TAG);
            }
            comm.send(0, TAG, 0u64);
        }
    };
    let each = |p: usize, op: &(dyn Fn(&Comm) + Sync)| {
        on_ranks(p, |comm| time_batches(batches, || op(comm)))
    };

    type Row<'a> = (&'a str, &'a dyn Fn() -> Reading);
    let rows: [Row; 10] = [
        ("raw line ping-pong", &|| {
            let link = RawLink::new();
            on_ranks(2, |comm| {
                (0..batches.div_ceil(RAW_BATCHES))
                    .map(|nth| link.read(comm.rank() == 0, nth) * 1e-9)
                    .collect()
            })
        }),
        ("lane ping-pong", &|| lane_pingpong(batches)),
        ("Comm 8 B ping-pong", &|| each(2, &pingpong)),
        ("allreduce 8 B", &|| {
            each(2, &|comm| {
                std::hint::black_box(comm.allreduce(1u64, true, |_| 8, sum));
            })
        }),
        ("barrier", &|| each(2, &Comm::barrier)),
        ("exclusive scan 8 B", &|| {
            each(2, &|comm| {
                std::hint::black_box(comm.scan_exclusive(1u64, || 0, |_| 8, sum));
            })
        }),
        ("CG halo exchange", &|| {
            on_ranks(2, |comm| {
                // Two entries per rank: the exchange, next to no arithmetic.
                let x = CgBlock::from_fn(comm, 4, |i| i as f64);
                let mut y = CgBlock::zeros(comm, 4);
                time_batches(batches, || cg::matvec(comm, &x, &mut y))
            })
        }),
        ("burst of 64, per message", &|| {
            // One operation is one message, a batch about as many
            // messages as any other row's.
            on_ranks(2, |comm| {
                time_calls(batches, LATENCY_BATCH / BURST, BURST, || burst(comm))
            })
        }),
        ("allreduce 8 B at p = 1", &|| {
            each(1, &|comm| {
                std::hint::black_box(comm.allreduce(1u64, true, |_| 8, sum));
            })
        }),
        ("CG solve, n = 1024 × 64", &|| {
            // The benchmark's `cg_solve` rep, solve by solve: 129
            // allreduces and 64 halo exchanges around 64 iterations of
            // arithmetic on 512 entries a rank. One operation is one
            // solve, a batch 32 of them (one benchmark rep).
            on_ranks(2, |comm| {
                let x_star = CgBlock::from_fn(comm, 1024, |i| ((i * 7) % 5) as f64 - 2.0);
                let mut b = CgBlock::zeros(comm, 1024);
                cg::matvec(comm, &x_star, &mut b);
                let mut x = CgBlock::zeros(comm, 1024);
                time_calls(batches.div_ceil(2), 32, 1, || {
                    x.data.fill(0.0);
                    std::hint::black_box(cg::solve(comm, &b, &mut x, 64));
                })
            })
        }),
    ];

    eprintln!(
        "  {:>24} | {:>15} | {:>8} | {:>8} | {:>7}",
        "ns per op", "raw before/after", "p10", "median", "med/raw"
    );
    for (name, row) in rows {
        let Reading {
            raw_before,
            raw_after,
            mut times,
        } = row();
        times.sort_by(f64::total_cmp);
        let (p10, median) = (times[times.len() / 10] * 1e9, times[times.len() / 2] * 1e9);
        let raw = (raw_before + raw_after) / 2.0;
        // The two vCPUs were moved while the row ran: its multiple
        // describes neither placement.
        let moved = raw_before.max(raw_after) > 1.5 * raw_before.min(raw_after);
        eprintln!(
            "  {name:>24} | {raw_before:>7.1} {raw_after:>7.1} | {p10:>8.1} | {median:>8.1} | {}",
            match (raw > 0.0, moved) {
                (false, _) => format!("{:>7}", "-"),
                (true, false) => format!("{:>7.2}", median / raw),
                (true, true) => format!("{:>7}", "moved"),
            }
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

    if has_flag(&args, "--wall") {
        eprintln!("\n  host wall clock at p = 2, p10 / median (timing-dependent, not recorded):");
        wall_report(if quick { 20 } else { 200 });
    }
    if has_flag(&args, "--latency") {
        eprintln!(
            "\n  small-message latency, two ranks bound to two cores, batches of {LATENCY_BATCH} \
             (timing-dependent, not recorded):"
        );
        latency_report(if quick { 20 } else { 200 });
    }
}
