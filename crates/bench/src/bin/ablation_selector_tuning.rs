//! Experiment TXT-SELECTOR-TUNING: selector accuracy off powers of two.
//!
//! Sweeps non-power-of-two-heavy rank counts (6, 8, 12, 16, 24) × state
//! size over three fixed allreduce schedules — reduce+bcast, recursive
//! doubling, and the circulant reduce-scatter + allgather — and reports
//! each modeled time alongside the selector-routed run, the fixed-model
//! pick, and the pick `AllreduceAlgorithm::select` makes on an α–β–γ
//! model measured on this host (`Comm::measure_cost_model`).
//!
//! One verdict line checks the acceptance criterion of the cost-model
//! bugfix this experiment records: `selector-within-5pct` — the
//! selector-routed run is within 5% of the best fixed schedule at every
//! swept point.
//!
//! The measured picks come from host wall-clock probes, so they may
//! legitimately differ from the fixed picks (the host is not the paper's
//! 2006 cluster); they are reported for inspection, not gated.
//!
//! Usage: ablation_selector_tuning [--procs 6,8,12,16,24] [--csv]
//! Env:   GV_BENCH_QUICK=1 shrinks the sweep for smoke runs.

use gv_bench::table::{has_flag, parallel_time, parse_procs, timed_phase};
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_msgpass::{AllreduceAlgorithm, CostModel, Runtime};

/// Fixed schedules swept per cell, beside the selector-routed entry.
const FIXED: [AllreduceAlgorithm; 3] = [
    AllreduceAlgorithm::ReduceBroadcast,
    AllreduceAlgorithm::RecursiveDoubling,
    AllreduceAlgorithm::ReduceScatterAllgather,
];

/// Modeled time of one allreduce: forced onto `fixed`, or through the
/// selector when `None`.
fn measure(p: usize, bytes: usize, fixed: Option<AllreduceAlgorithm>) -> f64 {
    let outcome = Runtime::new(p).run(move |comm| {
        let state = vec![1u64; bytes / 8];
        let wire = |v: &Vec<u64>| v.len() * 8;
        let add = |mut a: Vec<u64>, b: Vec<u64>| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        };
        let (split, unsplit) = (split_vec_segments, unsplit_vec_segments);
        let (_, dt) = timed_phase(comm, |c| match fixed {
            None => {
                c.allreduce_splittable(state.clone(), true, split, unsplit, wire, add);
            }
            Some(algo) => {
                c.allreduce_by((algo, 1), state.clone(), (split, unsplit), wire, add);
            }
        });
        dt
    });
    parallel_time(&outcome.results)
}

/// One run per rank count that measures the host's model, and the pick
/// `select` makes on it for each state size (every rank measures the
/// same model, so rank 0's is the run's).
fn measured_picks(
    p: usize,
    sizes: &[usize],
    rounds: usize,
) -> (Vec<AllreduceAlgorithm>, CostModel) {
    let outcome = Runtime::new(p).run(|comm| comm.measure_cost_model(rounds));
    let m = outcome.results[0];
    let picks = sizes
        .iter()
        .map(|&bytes| AllreduceAlgorithm::select(&m, p, bytes, true, true).0)
        .collect();
    (picks, m)
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

    let default_procs = if quick {
        vec![6, 12]
    } else {
        vec![6, 8, 12, 16, 24]
    };
    let procs = if args.iter().any(|a| a == "--procs") {
        parse_procs(&args)
    } else {
        default_procs
    };
    let sizes: Vec<usize> = if quick {
        vec![4 << 10, 64 << 10]
    } else {
        vec![1 << 10, 4 << 10, 64 << 10, 256 << 10]
    };
    let rounds = if quick { 2 } else { 4 };

    if csv {
        println!(
            "procs,bytes,selector_seconds,reduce_bcast_seconds,recursive_doubling_seconds,\
             circulant_seconds,fixed_pick,measured_pick"
        );
    } else {
        println!("TXT-SELECTOR-TUNING — allreduce selector off powers of two, modeled time\n");
        println!(
            "  {:>5} | {:>7} | {:>12} | {:>12} | {:>12} | {:>12} | {:<13} | measured",
            "p", "size", "selector", "reduce+bcast", "rec-doubling", "circulant", "fixed pick"
        );
    }

    // Worst selector-vs-best ratio over the sweep, and where it happened.
    let mut worst_ratio = f64::NEG_INFINITY;
    let mut worst_at = (0usize, 0usize);
    let mut models = Vec::new();

    for &p in &procs {
        let (picks, m) = measured_picks(p, &sizes, rounds);
        models.push((p, m));
        for (i, &bytes) in sizes.iter().enumerate() {
            let t_sel = measure(p, bytes, None);
            let fixed: Vec<f64> = FIXED.iter().map(|&a| measure(p, bytes, Some(a))).collect();
            let (t_rb, t_rd, t_circ) = (fixed[0], fixed[1], fixed[2]);
            let best = fixed.iter().cloned().fold(f64::INFINITY, f64::min);
            let ratio = t_sel / best;
            if ratio > worst_ratio {
                worst_ratio = ratio;
                worst_at = (p, bytes);
            }
            let cost = CostModel::default();
            let (fixed_pick, _) = AllreduceAlgorithm::select(&cost, p, bytes, true, true);
            if csv {
                println!(
                    "{p},{bytes},{t_sel:.9},{t_rb:.9},{t_rd:.9},{t_circ:.9},{},{}",
                    fixed_pick.name(),
                    picks[i].name()
                );
            } else {
                println!(
                    "  {:>5} | {:>7} | {:>9.1} µs | {:>9.1} µs | {:>9.1} µs | {:>9.1} µs | {:<13} | {}",
                    p,
                    fmt_size(bytes),
                    t_sel * 1e6,
                    t_rb * 1e6,
                    t_rd * 1e6,
                    t_circ * 1e6,
                    fixed_pick.name(),
                    picks[i].name()
                );
            }
        }
    }

    if !csv {
        println!("\n  measured α–β–γ model (host wall clock, min-of-burst probes):");
        for (p, m) in &models {
            println!(
                "  p={p:>2} α={:.2e} s  β={:.2e} s/B  γ={:.2e} s/op",
                m.alpha, m.beta, m.gamma
            );
        }
        println!();
    }

    let within = worst_ratio <= 1.05;
    println!(
        "VERDICT selector-within-5pct: {} (worst selector/best = {:.4} at p={} {})",
        if within { "PASS" } else { "FAIL" },
        worst_ratio,
        worst_at.0,
        fmt_size(worst_at.1)
    );
}
