//! Experiment TXT-PREFIX: the parallel-prefix scan against a linear chain.
//!
//! Paper §1: "scans are efficiently implemented by the parallel-prefix
//! algorithm [Ladner & Fischer]". Part 1 keeps the O(log p) vs O(p)
//! separation on the modeled clock: the shifted recursive-doubling
//! prefix every scan runs against the naive linear chain at 8-byte
//! states, the chain written out here with point-to-point messages, as
//! the figures write their MPI baselines.
//!
//! Part 2 measures the wall time per scan of vector states, from 8 bytes
//! to 1 MiB, on the one schedule.
//!
//! Usage: ablation_scan_algorithm [--procs 2,4,8] [--sizes 8,65536] [--csv]
//! `GV_BENCH_QUICK=1` shrinks the sweep for smoke runs.

use std::time::Instant;

use gv_bench::table::{arg_value, has_flag, parallel_time, parse_procs, timed_phase};
use gv_msgpass::{Comm, Runtime, Tag};

fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

#[allow(clippy::ptr_arg)] // passed where Fn(&Vec<u64>) -> usize is expected
fn wire(v: &Vec<u64>) -> usize {
    v.len() * 8
}

/// The linear chain's tag.
const CHAIN: Tag = 1;

/// The linear chain's inclusive sum: rank `r` waits for `r − 1`'s
/// prefix, adds its own value and forwards the result.
fn linear_chain(c: &Comm, mine: u64) -> u64 {
    let (r, p) = (c.rank(), c.size());
    let inclusive = match r {
        0 => mine,
        _ => c.recv::<u64>(r - 1, CHAIN) + mine,
    };
    if r + 1 < p {
        c.send(r + 1, CHAIN, inclusive);
    }
    inclusive
}

/// Modeled parallel time of one 8-byte scan (part 1): the library's, or
/// the linear chain.
fn modeled(p: usize, linear: bool) -> f64 {
    let outcome = Runtime::new(p).run(move |comm| {
        let (_, dt) = timed_phase(comm, |c| {
            let mine = c.rank() as u64 + 1;
            if linear {
                linear_chain(c, mine)
            } else {
                c.scan_inclusive(mine, |_| 8, |a, b| a + b)
            }
        });
        dt
    });
    parallel_time(&outcome.results)
}

/// Wall time per scan of `bytes`-sized vector states, amortized over
/// `iters` in-runtime repetitions (thread spawn excluded).
fn wall_time(p: usize, bytes: usize, iters: usize) -> f64 {
    let outcome = Runtime::new(p).run(move |comm| {
        let words = (bytes / 8).max(1);
        let state = vec![comm.rank() as u64 + 1; words];
        comm.barrier();
        let start = Instant::now();
        for _ in 0..iters {
            comm.scan_both(state.clone(), wire, add);
        }
        comm.barrier();
        start.elapsed().as_secs_f64() / iters as f64
    });
    parallel_time(&outcome.results)
}

fn parse_sizes(args: &[String], quick: bool) -> Vec<usize> {
    match arg_value(args, "--sizes") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("bad --sizes entry"))
            .collect(),
        None if quick => vec![8, 64 << 10],
        None => vec![8, 4 << 10, 64 << 10, 1 << 20],
    }
}

fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} KiB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let quick = std::env::var("GV_BENCH_QUICK").is_ok();
    // Part 1 is modeled (cheap) and keeps the full rank sweep; the
    // wall-time sweep of part 2 defaults to the ranks the host can
    // actually run in parallel.
    let prefix_procs = if quick && arg_value(&args, "--procs").is_none() {
        vec![4, 8]
    } else {
        parse_procs(&args)
    };
    let procs = if arg_value(&args, "--procs").is_some() {
        parse_procs(&args)
    } else if quick {
        vec![4, 8]
    } else {
        vec![2, 4, 8, 16]
    };
    let sizes = parse_sizes(&args, quick);
    let iters = if quick { 2 } else { 5 };

    // Part 1 — the original parallel-prefix separation, modeled clock.
    if csv {
        println!("section,procs,parallel_prefix_seconds,linear_chain_seconds,speedup");
    } else {
        println!("TXT-PREFIX — parallel-prefix scan vs linear chain (modeled time)\n");
        println!(
            "  {:>5} | {:>16} | {:>16} | {:>8}",
            "p", "parallel prefix", "linear chain", "speedup"
        );
    }
    for &p in &prefix_procs {
        if p < 2 {
            continue; // a single-rank scan is free on the modeled clock
        }
        let t_prefix = modeled(p, false);
        let t_linear = modeled(p, true);
        if csv {
            println!(
                "prefix,{p},{t_prefix:.9},{t_linear:.9},{:.3}",
                t_linear / t_prefix
            );
        } else {
            println!(
                "  {:>5} | {:>13.1} µs | {:>13.1} µs | {:>7.2}×",
                p,
                t_prefix * 1e6,
                t_linear * 1e6,
                t_linear / t_prefix
            );
        }
    }

    // Part 2 — wall time per scan.
    if csv {
        println!("section,procs,bytes,rd_seconds");
    } else {
        println!("\nScan wall time (per scan; vector states)\n");
        println!("  {:>5} | {:>8} | {:>12}", "p", "state", "recursive-dbl");
    }
    for &p in &procs {
        if p < 2 {
            continue;
        }
        for &bytes in &sizes {
            let t_rd = wall_time(p, bytes, iters);
            if csv {
                println!("schedule,{p},{bytes},{t_rd:.9}");
            } else {
                println!(
                    "  {:>5} | {:>8} | {:>9.1} µs",
                    p,
                    fmt_size(bytes),
                    t_rd * 1e6
                );
            }
        }
    }
}
