//! Experiment TXT-ALLREDUCE: the two allreduce schedules, modeled.
//!
//! Sweeps rank count × state size over the allreduce schedules the
//! runtime runs — reduce+bcast (the binomial tree a commutative request
//! runs) and recursive doubling (every blocking call) — and reports the
//! modeled time of each. Recursive doubling needs at most as many hops as
//! the tree at every cell, so the table shows what a blocking call gains
//! over the tree.
//!
//! Usage: ablation_allreduce_algorithm [--procs 2,4,8,16] [--csv]

use gv_bench::table::{has_flag, parallel_time, parse_procs, timed_phase};
use gv_msgpass::{AllreduceAlgorithm, Runtime};

/// State sizes swept, in bytes (the state is a Vec<u64> of size/8 slots).
const SIZES: [usize; 4] = [1 << 10, 8 << 10, 64 << 10, 1 << 20];

fn measure(p: usize, bytes: usize, algo: AllreduceAlgorithm) -> f64 {
    let outcome = Runtime::new(p).run(move |comm| {
        let state = vec![1u64; bytes / 8];
        let wire = |v: &Vec<u64>| v.len() * 8;
        let add = |mut a: Vec<u64>, b: Vec<u64>| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        };
        let (_, dt) = timed_phase(comm, |c| {
            c.allreduce_by(algo, state.clone(), wire, add);
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
        println!("procs,bytes,reduce_bcast_seconds,recursive_doubling_seconds");
    } else {
        println!("TXT-ALLREDUCE — allreduce schedules, modeled time (Vec<u64> state)\n");
        println!(
            "  {:>5} | {:>7} | {:>13} | {:>13}",
            "p", "size", "reduce+bcast", "rec-doubling"
        );
    }
    for &p in &procs {
        for &bytes in &SIZES {
            let [t_rb, t_rd] = AllreduceAlgorithm::ALL.map(|a| measure(p, bytes, a));
            if csv {
                println!("{p},{bytes},{t_rb:.9},{t_rd:.9}");
            } else {
                println!(
                    "  {:>5} | {:>7} | {:>10.1} µs | {:>10.1} µs",
                    p,
                    fmt_size(bytes),
                    t_rb * 1e6,
                    t_rd * 1e6,
                );
            }
        }
    }
}
