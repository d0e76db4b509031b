//! Experiment TXT-NPB: "In the NAS Parallel Benchmarks (NPB) version 3.2,
//! nearly 9% of the MPI calls are reductions."
//!
//! Runs the two NAS kernels implemented in this repository (IS end-to-end
//! and MG ZRAN3 + V-cycles, in their reference MPI-style variants) and
//! counts communication calls by kind — the same accounting a trace of
//! the reference benchmarks produces.
//!
//! Usage: mpi_call_stats [--procs 8] [--csv]

use gv_bench::table::{arg_value, has_flag};
use gv_msgpass::{CallKind, Runtime, StatsSnapshot};
use gv_nas::cg::{solve, CgBlock};
use gv_nas::is::{run_is, VerifyVariant};
use gv_nas::mg::vcycle::v_cycle;
use gv_nas::mg::zran3::{zran3, Zran3Variant};
use gv_nas::mg::Slab;
use gv_nas::{IsClass, MgClass};

fn run_workloads(p: usize) -> Vec<StatsSnapshot> {
    // NAS IS (reference MPI verification).
    let is_outcome = Runtime::new(p).run(|comm| {
        run_is(comm, IsClass::S, VerifyVariant::NasMpi);
    });
    // NAS MG: ZRAN3 (reference 40-reduction variant) + the class's V-cycles.
    let mg_outcome = Runtime::new(p).run(|comm| {
        let class = MgClass::S;
        let mut v = Slab::for_rank(class.n, comm.rank(), comm.size());
        zran3(comm, &mut v, 10, Zran3Variant::Mpi);
        let mut u = Slab::for_rank(class.n, comm.rank(), comm.size());
        let mut r = v.clone();
        for _ in 0..class.iterations {
            v_cycle(comm, &mut u, &v, &mut r);
        }
    });
    // CG: 75 iterations on a 1-D Poisson problem — the dot-product-heavy
    // kernel whose reductions dominate NPB's §1 statistic.
    let cg_outcome = Runtime::new(p).run(|comm| {
        let n = 16_384;
        let b = CgBlock::from_fn(comm, n, |i| ((i % 7) as f64) - 3.0);
        let mut x = CgBlock::zeros(comm, n);
        solve(comm, &b, &mut x, 75);
    });
    vec![is_outcome.stats, mg_outcome.stats, cg_outcome.stats]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let p: usize = arg_value(&args, "--procs")
        .map(|s| s.parse().expect("bad --procs"))
        .unwrap_or(8);

    let snapshots = run_workloads(p);
    let calls: Vec<(CallKind, u64)> = CallKind::ALL
        .iter()
        .map(|&kind| (kind, snapshots.iter().map(|s| s.calls(kind)).sum()))
        .collect();
    let messages: u64 = snapshots.iter().map(|s| s.messages).sum();
    let collective_total: u64 = calls
        .iter()
        .filter(|(k, _)| *k != CallKind::Send)
        .map(|(_, n)| n)
        .sum();
    let reduction_total: u64 = calls
        .iter()
        .filter(|(k, _)| k.is_reduction_or_scan())
        .map(|(_, n)| n)
        .sum();

    let user_total: u64 = calls.iter().map(|(_, n)| n).sum();
    if csv {
        println!("kind,calls");
        for (kind, n) in &calls {
            println!("{},{n}", kind.name());
        }
        println!(
            "reduction_share,{:.4}",
            reduction_total as f64 / user_total.max(1) as f64
        );
    } else {
        println!("Communication calls: NAS IS (S) + NAS MG (S) + CG (n=16384, 75 iters), p = {p}");
        println!("(reference MPI-style variants; collectives counted once per rank per call)\n");
        println!("  {:<12} {:>12}", "kind", "calls");
        for (kind, n) in &calls {
            if *n > 0 {
                println!("  {:<12} {:>12}", kind.name(), n);
            }
        }
        println!("\n  wire messages:      {messages}");
        println!("  user comm calls:    {user_total} ({collective_total} collectives + {} point-to-point)",
            user_total - collective_total);
        println!(
            "  reductions+scans:   {reduction_total} = {:.1}% of all communication calls",
            100.0 * reduction_total as f64 / user_total.max(1) as f64
        );
        println!(
            "\n  paper §1: \"nearly 9% of the MPI calls are reductions\" (NPB 3.2, all 8 kernels;"
        );
        println!("  this harness runs IS, MG and a CG kernel — the reduction-heavy subset)");
    }
}
