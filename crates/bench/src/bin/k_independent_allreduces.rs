//! Experiment NB-OVERLAP: k independent allreduces, blocking sequence vs.
//! requests in flight.
//!
//! The request-based collectives exist so that independent reductions can
//! share the network instead of serializing: `iallreduce` parks a
//! resumable schedule in the rank's progress engine and returns a
//! [`Request`](gv_msgpass::Request), so the next collective's first round
//! of sends goes out before the previous one has finished. This harness
//! issues `k` independent allreduces per rank two ways —
//!
//!   * **sequential**: `k` blocking [`allreduce`](gv_msgpass::Comm::allreduce)
//!     calls, each schedule driven to completion before the next starts
//!     (every call pays the full ⌈log₂p⌉·(α+βn) critical path);
//!   * **overlapped**: `k` [`iallreduce`](gv_msgpass::Comm::iallreduce)
//!     calls followed by one batched [`wait_all`](gv_msgpass::wait_all)
//!     (all `k` round-0 messages are on the wire before the first
//!     round-1 receive, so the `k` schedules pipeline through the same
//!     rounds, paying the critical path roughly once plus a per-message
//!     injection overhead).
//!
//! Reported is the modeled parallel time of each variant (max over ranks
//! of the per-rank virtual-clock delta, the same convention as every
//! other harness) plus the host wall time of the phase for reference
//! (wall time measures this process's transport, not the modeled
//! network; it is noisy and not the acceptance metric).
//!
//! Usage: k_independent_allreduces [--procs 2,4,8] [--csv]
//! Env:   GV_BENCH_QUICK=1 shrinks the sweep to the headline cell
//!        (p=8, 64 KiB) for a CI smoke run.

use std::time::Instant;

use gv_bench::table::{arg_value, has_flag, parallel_time, timed_phase};
use gv_msgpass::{wait_all, Runtime};

/// Independent allreduces in flight per rank.
const K: usize = 8;

/// State sizes swept, in bytes (the state is a Vec<u64> of size/8 slots).
const SIZES: [usize; 3] = [1 << 10, 8 << 10, 64 << 10];

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

/// Runs the phase on `p` ranks and returns `(modeled, wall)` parallel
/// times. Every rank checks each reduction's value, so a schedule that
/// cross-matched traffic between in-flight requests would fail loudly
/// rather than report a fast wrong answer.
fn measure(p: usize, bytes: usize, overlapped: bool) -> (f64, f64) {
    let outcome = Runtime::new(p).run(move |comm| {
        let slots = bytes / 8;
        let states: Vec<Vec<u64>> = (0..K)
            .map(|i| vec![comm.rank() as u64 + i as u64; slots])
            .collect();
        let expected: Vec<u64> = (0..K)
            .map(|i| (0..p as u64).map(|r| r + i as u64).sum())
            .collect();
        let (wall, modeled) = timed_phase(comm, |c| {
            let t0 = Instant::now();
            if overlapped {
                let mut reqs: Vec<_> = states
                    .iter()
                    .map(|s| c.iallreduce(s.clone(), true, wire, add))
                    .collect();
                let results = wait_all(&mut reqs).expect("transport alive");
                for (i, res) in results.iter().enumerate() {
                    assert_eq!(res[0], expected[i], "allreduce {i} wrong");
                }
            } else {
                for (i, s) in states.iter().enumerate() {
                    let res = c.allreduce(s.clone(), true, wire, add);
                    assert_eq!(res[0], expected[i], "allreduce {i} wrong");
                }
            }
            t0.elapsed().as_secs_f64()
        });
        (modeled, wall)
    });
    let modeled: Vec<f64> = outcome.results.iter().map(|&(m, _)| m).collect();
    let wall: Vec<f64> = outcome.results.iter().map(|&(_, w)| w).collect();
    (parallel_time(&modeled), parallel_time(&wall))
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

    let procs: Vec<usize> = match arg_value(&args, "--procs") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("bad --procs entry"))
            .collect(),
        None if quick => vec![8],
        None => vec![2, 4, 8],
    };
    let sizes: &[usize] = if quick { &[64 << 10] } else { &SIZES };

    if csv {
        println!(
            "procs,bytes,k,sequential_seconds,overlapped_seconds,speedup,\
             sequential_wall_seconds,overlapped_wall_seconds"
        );
    } else {
        println!(
            "NB-OVERLAP — {K} independent allreduces per rank, modeled time \
             (commutative Vec<u64> state)\n"
        );
        println!(
            "  {:>5} | {:>7} | {:>12} | {:>12} | {:>7} | {:>10} | {:>10}",
            "p", "size", "sequential", "overlapped", "speedup", "seq wall", "ovl wall"
        );
    }
    for &p in &procs {
        for &bytes in sizes {
            let (t_seq, w_seq) = measure(p, bytes, false);
            let (t_ovl, w_ovl) = measure(p, bytes, true);
            let speedup = t_seq / t_ovl;
            if csv {
                println!(
                    "{p},{bytes},{K},{t_seq:.9},{t_ovl:.9},{speedup:.3},{w_seq:.6},{w_ovl:.6}"
                );
            } else {
                println!(
                    "  {:>5} | {:>7} | {:>9.1} µs | {:>9.1} µs | {:>6.2}x | {:>7.2} ms | {:>7.2} ms",
                    p,
                    fmt_size(bytes),
                    t_seq * 1e6,
                    t_ovl * 1e6,
                    speedup,
                    w_seq * 1e3,
                    w_ovl * 1e3,
                );
            }
            // The acceptance claim, enforced where it is robust: with
            // k requests in flight the engine's poll order follows
            // physical message arrival, so modeled time carries a few
            // percent of run-to-run jitter — at 1 KiB (pure α, win and
            // jitter are the same magnitude) the comparison is
            // unreliable, from 8 KiB up the pipelining win dominates.
            if p > 1 && bytes >= 8 << 10 {
                assert!(
                    t_ovl < t_seq,
                    "overlapped {K} allreduces must beat sequential \
                     (p={p} bytes={bytes}: {t_ovl} vs {t_seq})"
                );
            }
        }
    }
}
