//! Full NAS IS run: key generation → distributed ranking → verification,
//! with per-phase modeled timing — the benchmark the paper's §4.1 case
//! study lives inside.
//!
//! `--wall` adds, on stderr, the host-clock time of each phase of the
//! ranking (timing-dependent, so never part of a recorded table).
//!
//! Usage: nas_is [--class S|W|A|B|C|A/32|B/32|C/32] [--procs 8] [--variant rsmpi|nas|opt] [--wall]
//! Env:   GV_BENCH_QUICK=1 shrinks the `--wall` rep count for a CI smoke run.

use std::time::Instant;

use gv_bench::table::{
    arg_value, fmt_seconds, has_flag, parallel_time, report_wall_phases, timed_phase, wall_plan,
    wall_reps,
};
use gv_msgpass::Runtime;
use gv_nas::is::{distributed_sort, generate_keys, key_ranks, VerifyVariant};
use gv_nas::IsClass;

/// The source `distributed_sort` runs, compiled in a second time: its
/// phases are private to `gv_nas`, and timing them takes its `lap` hook.
#[path = "../../../nas/src/is/rank/phases.rs"]
mod phases;

/// Row labels of the `--wall` table, indexed by `phases::Phase as usize`
/// and named for the counting path every NAS class through p = 32 takes.
const PHASES: [&str; 6] = [
    "histogram",
    "copy spans",
    "exchange",
    "add spans",
    "emit",
    "offset scan",
];

/// Host wall-clock of each ranking phase over sorts of the same keys: a
/// rep starts at a barrier; a phase ends when [`phases::sort_block`] says
/// so.
fn wall_report(class: IsClass, p: usize) {
    let outcome = Runtime::new(p).run(move |comm| {
        let keys = generate_keys(class, comm.rank(), comm.size());
        wall_reps(comm, wall_plan(), || {
            let mut last = Instant::now();
            let mut laps = [0.0f64; PHASES.len()];
            let (block, _) = phases::sort_block(comm, &keys, class.max_key(), &mut |phase| {
                let now = Instant::now();
                laps[phase as usize] = (now - last).as_secs_f64();
                last = now;
            });
            assert!(block.is_sorted());
            laps
        })
    });
    report_wall_phases("the ranking", PHASES, &outcome.results);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let class = IsClass::by_name(&arg_value(&args, "--class").unwrap_or_else(|| "W".into()))
        .expect("unknown IS class");
    let p: usize = arg_value(&args, "--procs")
        .map(|s| s.parse().expect("bad --procs"))
        .unwrap_or(8);
    let variant = match arg_value(&args, "--variant").as_deref() {
        None | Some("rsmpi") => VerifyVariant::Rsmpi,
        Some("nas") => VerifyVariant::NasMpi,
        Some("opt") => VerifyVariant::MpiScalarOpt,
        Some(other) => panic!("unknown variant {other} (rsmpi|nas|opt)"),
    };

    println!(
        "NAS IS class {} — {} keys in 0..2^{}, {p} ranks, verifier {:?}\n",
        class.name,
        class.total_keys(),
        class.max_key_log2,
        variant
    );

    let outcome = Runtime::new(p).run(move |comm| {
        let (keys, t_gen) = timed_phase(comm, |c| {
            let keys = generate_keys(class, c.rank(), c.size());
            // 4 randlc variates per key at ~10 ops each.
            c.advance(keys.len() as u64 * 40);
            keys
        });
        let (block, t_rank) = timed_phase(comm, |c| distributed_sort(c, &keys, class.max_key()));
        let (ranks, t_ranks) = timed_phase(comm, |c| {
            let ranks = key_ranks(&block);
            c.advance(ranks.len() as u64);
            ranks
        });
        let (ok, t_verify) = timed_phase(comm, |c| variant.verify(c, &block.keys));
        let rank_checks = ranks.windows(2).all(|w| w[1] == w[0] + 1);
        (
            ok && rank_checks,
            block.keys.len(),
            [t_gen, t_rank, t_ranks, t_verify],
        )
    });

    let verified = outcome.results.iter().all(|(ok, _, _)| *ok);
    let total: usize = outcome.results.iter().map(|(_, n, _)| n).sum();
    for (name, i) in [
        ("keygen", 0),
        ("ranking", 1),
        ("rank ids", 2),
        ("verify", 3),
    ] {
        let times: Vec<f64> = outcome.results.iter().map(|(_, _, t)| t[i]).collect();
        println!("  {name:<9} {:>12}", fmt_seconds(parallel_time(&times)));
    }
    println!("\n  keys ranked: {total}");
    println!(
        "  wire messages: {}, bytes: {}",
        outcome.stats.messages, outcome.stats.bytes
    );
    println!(
        "  VERIFICATION {}",
        if verified { "SUCCESSFUL" } else { "FAILED" }
    );
    assert!(verified);

    if has_flag(&args, "--wall") {
        wall_report(class, p);
    }
}
