//! Experiment TXT-LATENCY: what one small message costs at each layer
//! between two ranks bound to two cores, as a multiple of a raw
//! cache-line ping-pong read by the same threads in the same process
//! (EXPERIMENTS.md, TXT-LATENCY). Host clock, printed to stderr and not
//! recorded.
//!
//! Usage: pipeline_microbench [--latency]
//! (the latency table is the bin's one table; `scripts/campaign.sh
//! --latency` names the flag and reads three rows of it.)
//! Env:   GV_BENCH_QUICK=1 shortens every row for CI smoke runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gv_executor::lane::{lane, LaneReceiver, Parker};

use gv_msgpass::{Comm, Runtime};
use gv_nas::cg::{self, CgBlock};

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
/// Messages in one burst of the burst row (two laps of the 32-slot
/// ring).
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

fn main() {
    let quick = std::env::var("GV_BENCH_QUICK").is_ok_and(|v| v != "0");
    eprintln!(
        "  small-message latency, two ranks bound to two cores, batches of {LATENCY_BATCH} \
         (timing-dependent, not recorded):"
    );
    latency_report(if quick { 20 } else { 200 });
}
