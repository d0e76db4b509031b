//! Figure 3: speedup of the ZRAN3 subroutine of NAS MG.
//!
//! "Efficiency graphs showing the speedup of the ZRAN3 subroutine of
//! classes A, B, and C of the NAS MG benchmark" — F+MPI (forty built-in
//! reductions) vs F+RSMPI (one user-defined reduction).
//!
//! Usage:
//!   fig3_mg_zran3 [--classes S,A/8,C/8] [--procs 1,2,4,...] [--csv]
//!
//! "The overhead of not using the single user-defined reduction is seen
//! more sharply in smaller problem classes since the reduction accounts
//! for more of the time" — the harness prints the MPI/RSMPI time ratio so
//! that trend is directly visible.

use gv_bench::table::{arg_value, fmt_seconds, has_flag, parallel_time, parse_procs, timed_phase};
use gv_msgpass::Runtime;
use gv_nas::mg::zran3::{zran3, Zran3Variant};
use gv_nas::mg::Slab;
use gv_nas::MgClass;

fn measure(class: MgClass, p: usize, variant: Zran3Variant) -> f64 {
    let outcome = Runtime::new(p).run(move |comm| {
        let mut slab = Slab::for_rank(class.n, comm.rank(), comm.size());
        // Timed: the whole ZRAN3 routine (fill + extrema + charges), as in
        // Figure 3.
        let (_, dt) = timed_phase(comm, |c| zran3(c, &mut slab, 10, variant));
        dt
    });
    parallel_time(&outcome.results)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let classes: Vec<MgClass> = arg_value(&args, "--classes")
        .unwrap_or_else(|| "S,A/8,C/8".to_string())
        .split(',')
        .map(|name| {
            MgClass::by_name(name.trim()).unwrap_or_else(|| panic!("unknown MG class {name}"))
        })
        .collect();
    let procs = parse_procs(&args);

    if csv {
        println!("class,procs,variant,modeled_seconds,speedup,efficiency,mpi_over_rsmpi");
    } else {
        println!("Figure 3 — NAS MG ZRAN3 (modeled time, α–β–γ cost model)");
        println!(
            "speedup/efficiency vs the same variant at p = 1; last column = T(F+MPI)/T(F+RSMPI)\n"
        );
    }

    for class in &classes {
        if !csv {
            println!("class {} ({}³ grid):", class.name, class.n);
            println!(
                "  {:>5} | {:>22} {:>9} {:>6} | {:>22} {:>9} {:>6} | {:>7}",
                "p", "F+MPI", "spd", "eff", "F+RSMPI", "spd", "eff", "ratio"
            );
        }
        let base: Vec<f64> = Zran3Variant::ALL
            .iter()
            .map(|(variant, _)| measure(*class, 1, *variant))
            .collect();
        for &p in &procs {
            if p > class.n {
                continue; // fewer z-planes than ranks: skip like the paper's plots end
            }
            let times: Vec<f64> = Zran3Variant::ALL
                .iter()
                .map(|(variant, _)| measure(*class, p, *variant))
                .collect();
            let ratio = times[0] / times[1];
            if csv {
                for (vi, (_, vname)) in Zran3Variant::ALL.iter().enumerate() {
                    println!(
                        "{},{},{},{:.9},{:.3},{:.3},{:.3}",
                        class.name,
                        p,
                        vname,
                        times[vi],
                        base[vi] / times[vi],
                        base[vi] / times[vi] / p as f64,
                        ratio
                    );
                }
            } else {
                let cells: Vec<String> = (0..2)
                    .map(|vi| {
                        let speedup = base[vi] / times[vi];
                        format!(
                            "{:>22} {:>9.2} {:>6.2}",
                            fmt_seconds(times[vi]),
                            speedup,
                            speedup / p as f64
                        )
                    })
                    .collect();
                println!("  {p:>5} | {} | {ratio:>7.3}", cells.join(" | "));
            }
        }
        if !csv {
            println!();
        }
    }
}
