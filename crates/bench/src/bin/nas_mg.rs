//! Full NAS MG run: ZRAN3 initialization followed by the class's V-cycle
//! iterations, printing the residual norms per iteration — the benchmark
//! the paper's §4.2 case study lives inside.
//!
//! `--wall` adds, on stderr, the host-clock time of each phase of ZRAN3
//! (timing-dependent, so never part of a recorded table); class W at two
//! ranks is the benchmark's `mg_zran3` grid.
//!
//! Usage: nas_mg [--class S|W|A/8|B/8|C/8] [--procs 4] [--variant rsmpi|mpi] [--wall]
//! Env:   GV_BENCH_QUICK=1 shrinks the `--wall` rep count for a CI smoke run.

use std::time::Instant;

use gv_bench::table::{
    arg_value, fmt_seconds, has_flag, parallel_time, report_wall_phases, timed_phase, wall_plan,
    wall_reps,
};
use gv_msgpass::Runtime;
use gv_nas::mg::vcycle::v_cycle;
use gv_nas::mg::zran3::{
    apply_charges, extrema_mpi, extrema_rsmpi, fill_random, zran3, Zran3Variant,
};
use gv_nas::mg::Slab;
use gv_nas::randlc::DEFAULT_SEED;
use gv_nas::MgClass;

/// Host wall-clock of ZRAN3's three phases — the public functions `zran3`
/// calls, in its order — over reps on the same slab.
fn wall_report(class: MgClass, p: usize, variant: Zran3Variant) {
    let outcome = Runtime::new(p).run(move |comm| {
        let mut slab = Slab::for_rank(class.n, comm.rank(), comm.size());
        wall_reps(comm, wall_plan(), || {
            let started = Instant::now();
            fill_random(comm, &mut slab, DEFAULT_SEED);
            let filled = Instant::now();
            let extrema = match variant {
                Zran3Variant::Mpi => extrema_mpi(comm, &slab, 10),
                Zran3Variant::Rsmpi => extrema_rsmpi(comm, &slab, 10),
            };
            let found = Instant::now();
            apply_charges(comm, &mut slab, &extrema);
            let charged = Instant::now();
            [filled - started, found - filled, charged - found].map(|lap| lap.as_secs_f64())
        })
    });
    report_wall_phases("ZRAN3", ["fill", "extrema", "charges"], &outcome.results);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let class = MgClass::by_name(&arg_value(&args, "--class").unwrap_or_else(|| "S".into()))
        .expect("unknown MG class");
    let p: usize = arg_value(&args, "--procs")
        .map(|s| s.parse().expect("bad --procs"))
        .unwrap_or(4);
    let variant = match arg_value(&args, "--variant").as_deref() {
        None | Some("rsmpi") => Zran3Variant::Rsmpi,
        Some("mpi") => Zran3Variant::Mpi,
        Some(other) => panic!("unknown variant {other} (rsmpi|mpi)"),
    };
    assert!(
        class.n >= 2 * p,
        "class {} needs p ≤ {} (one V-cycle plane pair per rank)",
        class.name,
        class.n / 2
    );

    println!(
        "NAS MG class {} — {}³ grid, {} iterations, {p} ranks, zran3 variant {:?}\n",
        class.name, class.n, class.iterations, variant
    );

    let iterations = class.iterations;
    let outcome = Runtime::new(p).run(move |comm| {
        let mut v = Slab::for_rank(class.n, comm.rank(), comm.size());
        let (_, t_zran3) = timed_phase(comm, |c| zran3(c, &mut v, 10, variant));
        let mut u = Slab::for_rank(class.n, comm.rank(), comm.size());
        let mut r = v.clone();
        let mut norms = Vec::with_capacity(iterations);
        let (_, t_cycles) = timed_phase(comm, |c| {
            for _ in 0..iterations {
                norms.push(v_cycle(c, &mut u, &v, &mut r));
            }
        });
        (norms, t_zran3, t_cycles)
    });

    let (norms, _, _) = &outcome.results[0];
    println!("  iter   L2 residual      max residual");
    for (i, (l2, max)) in norms.iter().enumerate() {
        println!("  {:>4}   {l2:.9e}   {max:.9e}", i + 1);
    }
    let zran3_times: Vec<f64> = outcome.results.iter().map(|(_, t, _)| *t).collect();
    let cycle_times: Vec<f64> = outcome.results.iter().map(|(_, _, t)| *t).collect();
    println!(
        "\n  zran3    {:>12}",
        fmt_seconds(parallel_time(&zran3_times))
    );
    println!(
        "  V-cycles {:>12}",
        fmt_seconds(parallel_time(&cycle_times))
    );
    println!(
        "  wire messages: {}, bytes: {}",
        outcome.stats.messages, outcome.stats.bytes
    );
    let converged = norms.windows(2).all(|w| w[1].0 < w[0].0);
    println!(
        "  residual monotonically decreasing: {}",
        if converged { "yes" } else { "NO" }
    );
    assert!(converged);

    if has_flag(&args, "--wall") {
        wall_report(class, p, variant);
    }
}
