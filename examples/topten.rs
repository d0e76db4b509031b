//! NAS MG ZRAN3-style extrema (paper §4.2): the ten largest and ten
//! smallest values of a distributed random grid, with locations — forty
//! built-in reductions versus one user-defined reduction.
//!
//! Run with: `cargo run --release --example topten`

use gv_msgpass::{CallKind, Runtime};
use gv_nas::mg::zran3::{fill_random, zran3, Zran3Variant};
use gv_nas::mg::Slab;

fn main() {
    let n = 32;
    let p = 8;
    println!("{n}³ grid of NPB random values over {p} ranks\n");

    for (variant, name) in Zran3Variant::ALL {
        let outcome = Runtime::new(p).run(move |comm| {
            let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
            // Fill untimed so the comparison isolates the extrema search.
            fill_random(comm, &mut slab, gv_nas::randlc::DEFAULT_SEED);
            comm.barrier();
            let start = comm.now();
            let extrema = match variant {
                Zran3Variant::Mpi => gv_nas::mg::zran3::extrema_mpi(comm, &slab, 10),
                Zran3Variant::Rsmpi => gv_nas::mg::zran3::extrema_rsmpi(comm, &slab, 10),
            };
            comm.barrier();
            (extrema, comm.now() - start)
        });
        let time = outcome
            .results
            .iter()
            .map(|(_, t)| *t)
            .fold(0.0f64, f64::max);
        let reductions = outcome.stats.calls(CallKind::Allreduce) / p as u64;
        let extrema = &outcome.results[0].0;
        println!(
            "{name}: {reductions} reductions per rank, modeled {:.1} µs",
            time * 1e6
        );
        println!(
            "  largest : {:?}",
            extrema
                .largest
                .iter()
                .take(3)
                .map(|(v, i)| format!("{v:.6}@{i}"))
                .collect::<Vec<_>>()
        );
        println!(
            "  smallest: {:?}\n",
            extrema
                .smallest
                .iter()
                .take(3)
                .map(|(v, i)| format!("{v:.6}@{i}"))
                .collect::<Vec<_>>()
        );
    }

    // The full ZRAN3 contract: ±1 charges on a zeroed grid.
    let outcome = Runtime::new(p).run(move |comm| {
        let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
        zran3(comm, &mut slab, 10, Zran3Variant::Rsmpi);
        let plus: usize = slab.data.iter().filter(|&&v| v == 1.0).count();
        let minus: usize = slab.data.iter().filter(|&&v| v == -1.0).count();
        (plus, minus)
    });
    let plus: usize = outcome.results.iter().map(|(a, _)| a).sum();
    let minus: usize = outcome.results.iter().map(|(_, b)| b).sum();
    println!("after zran3: {plus} cells at +1, {minus} cells at -1, rest 0 ✓");
}
