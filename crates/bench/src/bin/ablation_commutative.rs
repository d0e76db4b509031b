//! Experiment TXT-COMM: the commutativity ablation.
//!
//! Paper §1: with a branching factor greater than two, "reductions of
//! commutative operators can immediately combine whichever partial
//! results are available whereas reductions on non-commutative operators
//! must stick to a predefined order." §4.1 additionally reports that
//! flagging the (non-commutative) `sorted` reduction as commutative gave
//! **no speedup** at branching factor 2 — and broke verification.
//!
//! This harness sweeps branching factors with skewed rank start times
//! (the regime where combining order matters) and reports modeled reduce
//! times for commutative vs rank-ordered combining, plus the §4.1
//! mis-flagging result.
//!
//! Usage: ablation_commutative [--procs 32] [--csv]

use gv_bench::table::{arg_value, has_flag, parallel_time, timed_phase};
use gv_core::ops::sorted::Sorted;
use gv_msgpass::Runtime;

/// Modeled time of one reduce with the given schedule. Rank start times
/// are skewed pseudo-randomly so availability order differs from rank
/// order (the interesting regime).
fn measure(p: usize, branching: usize, commutative: bool, state_ops: u64) -> f64 {
    let outcome = Runtime::new(p).run(move |comm| {
        // Deterministic skew: up to ~200 µs of pre-reduce imbalance. It
        // must be applied *inside* the timed phase — the phase-start
        // barrier would otherwise level every rank's clock and hide the
        // staggered availability the two schedules react to.
        let skew = ((comm.rank() as u64).wrapping_mul(2654435761) % 200_000) + 1;
        let (_, dt) = timed_phase(comm, |c| {
            c.advance(skew);
            c.reduce_with_branching(
                0,
                1u64,
                commutative,
                branching,
                |_| 8 * state_ops as usize,
                |a, b| {
                    c.advance(state_ops);
                    a + b
                },
            )
        });
        dt
    });
    parallel_time(&outcome.results)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = has_flag(&args, "--csv");
    let p: usize = arg_value(&args, "--procs")
        .map(|s| s.parse().expect("bad --procs"))
        .unwrap_or(32);
    let state_ops = 20_000u64; // heavy combine, like a large mink state

    if csv {
        println!("branching,commutative_seconds,ordered_seconds,ratio");
    } else {
        println!("TXT-COMM — commutative vs rank-ordered combining, p = {p}");
        println!("(skewed rank start times; combine cost {state_ops} ops per state)\n");
        println!(
            "  {:>9} | {:>14} | {:>14} | {:>6}",
            "branching", "commutative", "rank-ordered", "ratio"
        );
    }
    for branching in [2usize, 4, 8, 16, 32] {
        if branching > p {
            break;
        }
        let t_comm = measure(p, branching, true, state_ops);
        let t_ord = measure(p, branching, false, state_ops);
        if csv {
            println!("{branching},{t_comm:.9},{t_ord:.9},{:.4}", t_ord / t_comm);
        } else {
            println!(
                "  {:>9} | {:>12.1} µs | {:>12.1} µs | {:>6.3}",
                branching,
                t_comm * 1e6,
                t_ord * 1e6,
                t_ord / t_comm
            );
        }
    }

    // §4.1: flagging `sorted` commutative at branching 2 — no speedup, and
    // wrong answers become possible under out-of-order combining.
    let sorted_time = |claim: bool| {
        let outcome = Runtime::new(p).run(move |comm| {
            let local: Vec<i64> = (0..512).map(|i| (comm.rank() * 512 + i) as i64).collect();
            let (ok, dt) = timed_phase(comm, |c| {
                gv_rsmpi::reduce_all_claiming_commutativity(
                    c,
                    &Sorted::<i64>::new(),
                    &local,
                    2,
                    claim,
                )
            });
            (ok, dt)
        });
        let ok = outcome.results.iter().all(|(ok, _)| *ok);
        let times: Vec<f64> = outcome.results.iter().map(|(_, t)| *t).collect();
        (ok, parallel_time(&times))
    };
    let (ok_nc, t_nc) = sorted_time(false);
    let (ok_c, t_c) = sorted_time(true);
    if !csv {
        println!("\n§4.1 mis-flagging check (sorted reduction, branching 2, p = {p}):");
        println!(
            "  honest non-commutative: verified={ok_nc}  t={:.1} µs",
            t_nc * 1e6
        );
        println!(
            "  flagged commutative:    verified={ok_c}  t={:.1} µs  (speedup {:.3}×)",
            t_c * 1e6,
            t_nc / t_c
        );
        println!(
            "  paper: \"This resulted in no speedup\" — at branching 2 the schedule is identical."
        );
    }
}
