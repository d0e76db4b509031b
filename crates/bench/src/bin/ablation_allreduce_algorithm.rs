//! Experiment TXT-ALLREDUCE: cost-driven allreduce algorithm selection.
//!
//! Sweeps rank count × state size over the four allreduce schedules the
//! runtime knows — reduce+bcast (the tree at S = 1, the old hardcoded
//! path), recursive doubling, reduce-scatter+allgather (Rabenseifner's
//! composition, available when the operator state is splittable and
//! commutative), and the fused segment-pipelined tree (splittable
//! states, any operator order) — and reports the modeled time
//! of each alongside the schedule the selector would pick from the α–β
//! estimates. The table demonstrates the crossover the selector
//! exploits: latency-bound small states want recursive doubling,
//! bandwidth-bound large states want a pipelined schedule.
//!
//! Usage: ablation_allreduce_algorithm [--procs 2,4,8,16] [--csv]

use gv_bench::table::{has_flag, parallel_time, parse_procs, timed_phase};
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_msgpass::{AllreduceAlgorithm, BcastAlgorithm, CostModel, Runtime};

/// State sizes swept, in bytes (the state is a Vec<u64> of size/8 slots).
const SIZES: [usize; 4] = [1 << 10, 8 << 10, 64 << 10, 1 << 20];

fn measure(p: usize, bytes: usize, algo: AllreduceAlgorithm) -> f64 {
    let segments = match algo {
        AllreduceAlgorithm::PipelinedTree => {
            BcastAlgorithm::tree_segments(&CostModel::default(), p, bytes)
        }
        _ => 1,
    };
    let outcome = Runtime::new(p).run(move |comm| {
        let state = vec![1u64; bytes / 8];
        let wire = |v: &Vec<u64>| v.len() * 8;
        let add = |mut a: Vec<u64>, b: Vec<u64>| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        };
        let segmentation = (split_vec_segments, unsplit_vec_segments);
        let (_, dt) = timed_phase(comm, |c| {
            c.allreduce_by((algo, segments), state.clone(), segmentation, wire, add);
        });
        dt
    });
    parallel_time(&outcome.results)
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
    let procs = parse_procs(&args);

    if csv {
        println!(
            "procs,bytes,reduce_bcast_seconds,recursive_doubling_seconds,\
             reduce_scatter_allgather_seconds,pipelined_tree_seconds,selected"
        );
    } else {
        println!("TXT-ALLREDUCE — allreduce schedules, modeled time (splittable Vec<u64> state)\n");
        println!(
            "  {:>5} | {:>7} | {:>13} | {:>13} | {:>13} | {:>13} | selected",
            "p", "size", "reduce+bcast", "rec-doubling", "rs+ag", "pipe-tree"
        );
    }
    for &p in &procs {
        for &bytes in &SIZES {
            let [t_rb, t_rd, t_rs, t_pt] = AllreduceAlgorithm::ALL.map(|a| measure(p, bytes, a));
            // What the selector would pick for this (p, size) cell, given
            // a commutative splittable operator (same default cost model
            // the runtime above measured under).
            let cost = CostModel::default();
            let picked = AllreduceAlgorithm::select(&cost, p, bytes, true, true);
            if csv {
                println!(
                    "{p},{bytes},{t_rb:.9},{t_rd:.9},{t_rs:.9},{t_pt:.9},{}",
                    picked.name()
                );
            } else {
                println!(
                    "  {:>5} | {:>7} | {:>10.1} µs | {:>10.1} µs | {:>10.1} µs | {:>10.1} µs | {}",
                    p,
                    fmt_size(bytes),
                    t_rb * 1e6,
                    t_rd * 1e6,
                    t_rs * 1e6,
                    t_pt * 1e6,
                    picked.name()
                );
            }
        }
    }
}
