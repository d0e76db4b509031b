//! Figure 2: speedup of the NAS IS verification phase.
//!
//! "Efficiency graphs showing the speedup of the verification phase of
//! classes A, B, and C of the NAS IS benchmark" — C+MPI vs C+RSMPI, plus
//! the scalar-optimized C+MPI variant §4.1 discusses.
//!
//! Usage:
//!   fig2_is_verify [--classes A/32,B/32,C/32] [--procs 1,2,4,...] [--csv]
//!
//! Default classes are the scaled stand-ins (see DESIGN.md); pass
//! `--classes A,B,C` for the paper's full sizes if the host can hold them.
//! Output per (class, procs, variant): modeled verification time, speedup
//! vs the same variant at p = 1, and parallel efficiency.

use gv_bench::table::{arg_value, fmt_seconds, has_flag, parallel_time, parse_procs, timed_phase};
use gv_msgpass::Runtime;
use gv_nas::is::{distributed_sort, generate_keys, VerifyVariant};
use gv_nas::IsClass;

fn measure(class: IsClass, p: usize, variant: VerifyVariant) -> (bool, f64) {
    let outcome = Runtime::new(p).run(move |comm| {
        // Untimed: build the sorted distributed array (the benchmark body
        // that precedes verification).
        let keys = generate_keys(class, comm.rank(), comm.size());
        let block = distributed_sort(comm, &keys, class.max_key());
        // Timed: the verification phase only, as in Figure 2.
        timed_phase(comm, |c| variant.verify(c, &block.keys))
    });
    let ok = outcome.results.iter().all(|(ok, _)| *ok);
    let times: Vec<f64> = outcome.results.iter().map(|(_, t)| *t).collect();
    (ok, parallel_time(&times))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let classes: Vec<IsClass> = arg_value(&args, "--classes")
        .unwrap_or_else(|| "A/32,B/32,C/32".to_string())
        .split(',')
        .map(|name| {
            IsClass::by_name(name.trim()).unwrap_or_else(|| panic!("unknown IS class {name}"))
        })
        .collect();
    let procs = parse_procs(&args);

    if csv {
        println!("class,procs,variant,modeled_seconds,speedup,efficiency");
    } else {
        println!("Figure 2 — NAS IS verification phase (modeled time, α–β–γ cost model)");
        println!("speedup/efficiency are relative to the same variant at p = 1\n");
    }

    for class in &classes {
        if !csv {
            println!(
                "class {} ({} keys in 0..2^{}):",
                class.name,
                class.total_keys(),
                class.max_key_log2
            );
            println!(
                "  {:>5} | {:>22} {:>9} {:>6} | {:>22} {:>9} {:>6} | {:>22} {:>9} {:>6}",
                "p", "C+MPI", "spd", "eff", "C+MPI(opt)", "spd", "eff", "C+RSMPI", "spd", "eff"
            );
        }
        // Per-variant serial baselines (measured at p = 1 regardless of
        // the requested sweep, so speedups are well-defined).
        let base: Vec<f64> = VerifyVariant::ALL
            .iter()
            .map(|(variant, _)| measure(*class, 1, *variant).1)
            .collect();
        for &p in &procs {
            let mut cells = Vec::new();
            for (vi, (variant, vname)) in VerifyVariant::ALL.iter().enumerate() {
                let (ok, t) = measure(*class, p, *variant);
                assert!(
                    ok,
                    "verification failed: class {} {vname} p={p}",
                    class.name
                );
                let speedup = base[vi] / t;
                let eff = speedup / p as f64;
                if csv {
                    println!(
                        "{},{},{},{:.9},{:.3},{:.3}",
                        class.name, p, vname, t, speedup, eff
                    );
                } else {
                    cells.push(format!(
                        "{:>22} {:>9.2} {:>6.2}",
                        fmt_seconds(t),
                        speedup,
                        eff
                    ));
                }
            }
            if !csv {
                println!("  {p:>5} | {}", cells.join(" | "));
            }
        }
        if !csv {
            println!();
        }
    }
}
