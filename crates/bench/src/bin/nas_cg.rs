//! NAS CG run: conjugate gradient on the 1-D Poisson operator with CG's
//! communication skeleton — one halo-exchanging matvec plus two allreduce
//! dot products per iteration (the call mix behind the paper's §1
//! "nearly 9%" reduction-share statistic).
//!
//! Sweeps rank counts for a fixed problem, reporting per-rank-count
//! modeled solve time, residual reduction, and the wire traffic split
//! between the matvec's point-to-point halo exchange and the dot
//! products' reductions. Self-verifying: `b = A·x*` for a known `x*`,
//! and the recovered solution must match.
//!
//! `--wall` adds, on stderr, the host-clock time a solve spends in each of
//! its three kinds of step, per rank count (timing-dependent, so never part
//! of a recorded table); `--n 1024 --procs 1,2` is the benchmark's
//! `cg_solve` problem.
//!
//! Usage: nas_cg [--n 16384] [--iters 64] [--procs 1,2,4,8,16] [--csv] [--wall]
//! Env:   GV_BENCH_QUICK=1 shrinks the problem (and the `--wall` rep
//!        count) for CI smoke runs.

use std::time::Instant;

use gv_bench::table::{
    arg_value, fmt_seconds, has_flag, parallel_time, report_wall_phases, timed_phase, wall_plan,
    wall_reps,
};
use gv_msgpass::{CallKind, Comm, Runtime};
use gv_nas::cg::{dot, matvec, solve, CgBlock};

/// Row labels of the `--wall` table.
const PHASES: [&str; 3] = ["dot", "matvec", "axpy"];

/// `gv_nas::cg::solve` re-run over the public `dot` and `matvec` with the
/// vector updates spelled here, every step's host-clock time added to its
/// phase's lap; must reproduce `solve`'s residual bit for bit.
fn solve_laps(comm: &Comm, b: &CgBlock, iterations: usize) -> ([f64; 3], f64) {
    let mut x = CgBlock::zeros(comm, b.n);
    let mut r = b.clone();
    let mut p_dir = r.clone();
    let mut ap = CgBlock::zeros(comm, b.n);
    let mut laps = [0.0f64; 3];
    let mut last = Instant::now();
    let mut lap = |phase: usize| {
        let now = Instant::now();
        laps[phase] += (now - last).as_secs_f64();
        last = now;
    };
    let mut rho = dot(comm, &r, &r);
    lap(0);
    for _ in 0..iterations {
        matvec(comm, &p_dir, &mut ap);
        lap(1);
        let denom = dot(comm, &p_dir, &ap);
        lap(0);
        if denom == 0.0 {
            break;
        }
        let alpha = rho / denom;
        for (x, p) in x.data.iter_mut().zip(&p_dir.data) {
            *x += alpha * p;
        }
        for (r, ap) in r.data.iter_mut().zip(&ap.data) {
            *r -= alpha * ap;
        }
        lap(2);
        let rho_next = dot(comm, &r, &r);
        lap(0);
        let beta = rho_next / rho;
        rho = rho_next;
        for (p, r) in p_dir.data.iter_mut().zip(&r.data) {
            *p = r + beta * *p;
        }
        lap(2);
    }
    (laps, rho.sqrt())
}

/// Host wall-clock of a solve's dot products (local product and allreduce),
/// matvecs (halo exchange and rows) and vector updates at `p` ranks.
fn wall_report(n: usize, iterations: usize, p: usize) {
    let outcome = Runtime::new(p).run(move |comm| {
        let x_star = CgBlock::from_fn(comm, n, |i| ((i * 7) % 5) as f64 - 2.0);
        let mut b = CgBlock::zeros(comm, n);
        matvec(comm, &x_star, &mut b);
        let expected = solve(comm, &b, &mut CgBlock::zeros(comm, n), iterations).residual;
        wall_reps(comm, wall_plan(), || {
            let (laps, residual) = solve_laps(comm, &b, iterations);
            assert_eq!(
                residual.to_bits(),
                expected.to_bits(),
                "the timed solve left `solve`'s"
            );
            laps
        })
    });
    report_wall_phases(&format!("one solve at p = {p}"), PHASES, &outcome.results);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let quick = std::env::var("GV_BENCH_QUICK").is_ok_and(|v| v != "0");
    let n: usize = arg_value(&args, "--n")
        .map(|s| s.parse().expect("bad --n"))
        .unwrap_or(if quick { 512 } else { 16384 });
    // Quick mode still has to pass the convergence asserts below: at
    // n = 512 the residual needs ~24 iterations to clear the 10³ bar.
    let iters: usize = arg_value(&args, "--iters")
        .map(|s| s.parse().expect("bad --iters"))
        .unwrap_or(if quick { 32 } else { 64 });
    let procs: Vec<usize> = match arg_value(&args, "--procs") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("bad --procs entry"))
            .collect(),
        None if quick => vec![4],
        None => vec![1, 2, 4, 8, 16],
    };

    if csv {
        println!("procs,n,iterations,solve_seconds,residual_ratio,allreduce_calls,messages,bytes");
    } else {
        println!("NAS CG — 1-D Poisson tridiag(−1,2,−1), n = {n}, {iters} iterations\n");
        println!(
            "  {:>5} | {:>12} | {:>13} | {:>10} | {:>9} | {:>11}",
            "p", "solve", "‖r‖/‖r₀‖", "allreduces", "messages", "wire bytes"
        );
    }
    for &p in &procs {
        let outcome = Runtime::new(p).run(move |comm| {
            // Self-verifying right-hand side: b = A·x* for a known x*.
            let x_star = CgBlock::from_fn(comm, n, |i| ((i * 7) % 5) as f64 - 2.0);
            let mut b = CgBlock::zeros(comm, n);
            matvec(comm, &x_star, &mut b);
            let mut x = CgBlock::zeros(comm, n);
            let (result, dt) = timed_phase(comm, |c| solve(c, &b, &mut x, iters));
            let err: f64 = x
                .data
                .iter()
                .zip(&x_star.data)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (result, err, dt)
        });
        let t = parallel_time(
            &outcome
                .results
                .iter()
                .map(|(_, _, dt)| *dt)
                .collect::<Vec<_>>(),
        );
        let result = outcome.results[0].0;
        let ratio = result.residual / result.initial_residual;
        let err: f64 = outcome
            .results
            .iter()
            .map(|(_, e, _)| e)
            .sum::<f64>()
            .sqrt();
        // CG on the SPD Poisson matrix reduces the residual fast and, at
        // iters ≥ n, recovers x* exactly; at the swept sizes the residual
        // must at least have dropped by 10³ and the solve must agree
        // across rank counts.
        assert!(ratio < 1e-3, "p={p}: residual only fell to {ratio:.3e}");
        assert!(
            err < 1e-3 * (n as f64).sqrt(),
            "p={p}: solution error {err:.3e}"
        );
        let allreduces = outcome.stats.calls(CallKind::Allreduce);
        if csv {
            println!(
                "{p},{n},{iters},{t:.9},{ratio:.3e},{allreduces},{},{}",
                outcome.stats.messages, outcome.stats.bytes
            );
        } else {
            println!(
                "  {:>5} | {:>12} | {:>13.3e} | {:>10} | {:>9} | {:>11}",
                p,
                fmt_seconds(t),
                ratio,
                allreduces,
                outcome.stats.messages,
                outcome.stats.bytes
            );
        }
    }
    if has_flag(&args, "--wall") {
        for &p in &procs {
            wall_report(n, iters, p);
        }
    }
}
