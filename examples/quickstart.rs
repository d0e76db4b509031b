//! Quickstart: built-in and user-defined reductions and scans on every
//! engine, using the paper's running example (§1): the ordered set
//! `[6, 7, 6, 3, 8, 2, 8, 4, 8, 3]`.
//!
//! Run with: `cargo run --example quickstart`

use gv_core::iter::Located;
use gv_core::prelude::*;
use gv_executor::Pool;
use gv_msgpass::Runtime;

fn main() {
    let data: Vec<i64> = vec![6, 7, 6, 3, 8, 2, 8, 4, 8, 3];
    println!("ordered set: {data:?}\n");

    // ---- Built-in operators, sequential engine --------------------------
    println!("sum  reduce  = {}", reduce(&sum::<i64>(), &data));
    println!("min  reduce  = {}", reduce(&min::<i64>(), &data));
    println!("max  reduce  = {}", reduce(&max::<i64>(), &data));
    println!(
        "sum  scan    = {:?}",
        scan(&sum::<i64>(), &data, ScanKind::Inclusive)
    );
    println!(
        "sum  xscan   = {:?}",
        scan(&sum::<i64>(), &data, ScanKind::Exclusive)
    );

    // ---- A user-defined operator from the paper: mink -------------------
    // Chapel (§3.1.1):  minimums = mink(integer, 3) reduce A;
    println!("\nmink(3)      = {:?}", reduce(&MinK::<i64>::new(3), &data));

    // mini (§3.1.2): minimum value and its (1-based) location. Chapel's
    // `[i in 1..n] (A(i), i)` is a located input: the values and the
    // location of the first, no pair built.
    println!(
        "mini         = {:?}",
        reduce(&mini(), Located::new(&data, 1usize))
    );

    // sorted (§3.1.4): is the ordered set sorted?
    println!("sorted       = {}", reduce(&Sorted::<i64>::new(), &data));
    let mut ascending = data.clone();
    ascending.sort();
    println!(
        "sorted(asc)  = {}",
        reduce(&Sorted::<i64>::new(), &ascending)
    );

    // ---- The same computation on virtual processors ----------------------
    // Shared-memory engine: Figure 1's accumulate + combine phases over
    // chunked virtual processors.
    let pool = Pool::new(gv_executor::default_parallelism());
    let par_sum = par_reduce(&pool, 4, &sum::<i64>(), &data);
    println!("\nshared-memory (4 virtual processors): sum = {par_sum}");

    // Message-passing engine (RSMPI): each rank owns a block of the
    // conceptual array; only operator states cross the network.
    let outcome = Runtime::new(5).run(|comm| {
        let chunk: Vec<i64> = data
            .chunks(2)
            .nth(comm.rank())
            .map(|c| c.to_vec())
            .unwrap_or_default();
        let k_smallest = gv_rsmpi::reduce_all(comm, &MinK::<i64>::new(3), &chunk);
        let prefix_sums = gv_rsmpi::scan(comm, &sum::<i64>(), &chunk, ScanKind::Inclusive);
        (k_smallest, prefix_sums)
    });
    println!("\nmessage passing (5 ranks, 2 elements each):");
    println!("  mink(3) on every rank  = {:?}", outcome.results[0].0);
    let flat: Vec<i64> = outcome
        .results
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .collect();
    println!("  distributed sum scan   = {flat:?}");
    println!(
        "  modeled parallel time  = {:.1} µs, wire messages = {}",
        outcome.modeled_seconds * 1e6,
        outcome.stats.messages
    );
}
