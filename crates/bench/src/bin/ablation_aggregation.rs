//! Experiment TXT-AGG: aggregation (paper §2.1).
//!
//! "It allows the programmer to compute multiple reductions
//! simultaneously, thus saving the overhead of many smaller messages."
//!
//! Sweeps the number of simultaneous reductions `m` and reports modeled
//! time and wire messages for `m` separate allreduces vs one aggregated
//! allreduce of an `m`-slot vector.
//!
//! `--wall` adds, on stderr, what the slot pass under an aggregated call
//! costs on the host clock (timing-dependent, so never part of the
//! recorded table): p = 2, 64 rows a rank, a built-in integer, a built-in
//! float and a user operator at three widths.
//!
//! Usage: ablation_aggregation [--procs 16] [--csv] [--wall]

use std::time::Instant;

use gv_bench::table::{
    arg_value, has_flag, parallel_time, report_wall_phases, timed_phase, wall_plan, wall_reps,
};
use gv_core::op::{ReduceScanOp, ScanKind};
use gv_core::ops::builtin::{min, sum};
use gv_core::ops::minmax::MinMax;
use gv_msgpass::Runtime;

fn measure(p: usize, m: usize, aggregated: bool) -> (f64, u64) {
    let outcome = Runtime::new(p).run(move |comm| {
        let values: Vec<i64> = (0..m)
            .map(|j| ((comm.rank() + 1) * (j + 3)) as i64 % 101)
            .collect();
        let (_, dt) = timed_phase(comm, |c| {
            if aggregated {
                let rows: Vec<&[i64]> = vec![&values];
                gv_rsmpi::reduce_all_elementwise(c, &min::<i64>(), &rows, m);
            } else {
                for &v in &values {
                    gv_rsmpi::reduce_all(c, &min::<i64>(), &[v]);
                }
            }
        });
        dt
    });
    (parallel_time(&outcome.results), outcome.stats.messages)
}

/// Host wall clock of one `reduce_all_elementwise` and one inclusive
/// `scan_elementwise` of `op` over 64 rows of `m` slots on each of 2 ranks.
fn wall_report<Op>(name: &str, op: Op, m: usize, cell: fn(usize) -> Op::In)
where
    Op: ReduceScanOp + Sync,
    Op::State: Clone + Send + 'static,
{
    let outcome = Runtime::new(2).run(|comm| {
        let row = |i| (0..m).map(move |j| cell((comm.rank() * 64 + i) * 7919 + j * 31));
        let rows: Vec<Vec<Op::In>> = (0..64).map(|i| row(i).collect()).collect();
        let rows: Vec<&[Op::In]> = rows.iter().map(Vec::as_slice).collect();
        wall_reps(comm, wall_plan(), || {
            let start = Instant::now();
            std::hint::black_box(gv_rsmpi::reduce_all_elementwise(comm, &op, &rows, m));
            let reduced = start.elapsed().as_secs_f64();
            let scanned = gv_rsmpi::scan_elementwise(comm, &op, &rows, m, ScanKind::Inclusive);
            std::hint::black_box(scanned);
            [reduced, start.elapsed().as_secs_f64() - reduced]
        })
    });
    report_wall_phases(
        &format!("one call of {name} at m = {m}"),
        ["reduce_all", "scan"],
        &outcome.results,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let p: usize = arg_value(&args, "--procs")
        .map(|s| s.parse().expect("bad --procs"))
        .unwrap_or(16);

    if csv {
        println!("m,separate_seconds,separate_msgs,aggregated_seconds,aggregated_msgs,speedup");
    } else {
        println!("TXT-AGG — m separate allreduces vs one aggregated allreduce, p = {p}\n");
        println!(
            "  {:>5} | {:>14} {:>8} | {:>14} {:>8} | {:>7}",
            "m", "separate", "msgs", "aggregated", "msgs", "speedup"
        );
    }
    for m in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let (t_sep, m_sep) = measure(p, m, false);
        let (t_agg, m_agg) = measure(p, m, true);
        if csv {
            println!(
                "{m},{t_sep:.9},{m_sep},{t_agg:.9},{m_agg},{:.3}",
                t_sep / t_agg
            );
        } else {
            println!(
                "  {:>5} | {:>11.1} µs {:>8} | {:>11.1} µs {:>8} | {:>6.2}×",
                m,
                t_sep * 1e6,
                m_sep,
                t_agg * 1e6,
                m_agg,
                t_sep / t_agg
            );
        }
    }
    if has_flag(&args, "--wall") {
        for m in [32usize, 4096, 65536] {
            let quarters = |v| (v % 1009) as f64 * 0.25;
            wall_report("min<i64>", min::<i64>(), m, |v| (v % 1009) as i64 - 500);
            wall_report("sum<f64>", sum::<f64>(), m, quarters);
            wall_report("MinMax<f64>", MinMax::<f64>::new(), m, quarters);
        }
    }
}
