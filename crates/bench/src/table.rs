//! Small helpers shared by the figure harnesses: phase timing inside the
//! SPMD runtime, and fixed-width table/CSV output.

use std::time::{Duration, Instant};

use gv_msgpass::localview::local_allreduce;
use gv_msgpass::Comm;

/// Runs `phase` between two barriers and returns the modeled elapsed time
/// of this rank for the phase (the harness takes the max over ranks —
/// that is the parallel time of the phase).
pub fn timed_phase<R>(comm: &Comm, phase: impl FnOnce(&Comm) -> R) -> (R, f64) {
    comm.barrier();
    let start = comm.now();
    let result = phase(comm);
    comm.barrier();
    (result, comm.now() - start)
}

/// Maximum of per-rank phase times — the modeled parallel time.
pub fn parallel_time(per_rank: &[f64]) -> f64 {
    per_rank.iter().cloned().fold(0.0, f64::max)
}

/// Formats seconds with engineering-friendly units.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

/// Reps of a NAS driver's `--wall` table and the untimed warm-up before
/// them: 20 after 1.5 s — the guest scheduler leaves the rank threads on one
/// core for about the first second of a runtime (the benchmark binds them;
/// these harnesses do not), and a phase would read twice its time — or 3
/// after none when `GV_BENCH_QUICK` asks for a CI smoke run.
pub fn wall_plan() -> (usize, Duration) {
    if std::env::var("GV_BENCH_QUICK").is_ok_and(|v| v != "0") {
        (3, Duration::ZERO)
    } else {
        (20, Duration::from_millis(1500))
    }
}

/// Runs `rep` untimed on every rank until `warm_up` has passed, then `reps`
/// more times, each from a barrier, and returns what those returned (a
/// rep's host-clock laps, for [`report_wall_phases`]).
pub fn wall_reps<R>(
    comm: &Comm,
    (reps, warm_up): (usize, Duration),
    mut rep: impl FnMut() -> R,
) -> Vec<R> {
    let started = Instant::now();
    // Every rank leaves the warm-up after the same rep.
    while local_allreduce(comm, started.elapsed() < warm_up, |a, b| a | b) {
        rep();
    }
    (0..reps)
        .map(|_| {
            comm.barrier();
            rep()
        })
        .collect()
}

/// Prints the `--wall` table of a NAS driver on stderr: the host wall clock
/// of each named phase, per rep the slower rank's time, then p10 / median
/// over the reps. `laps[rank][rep][phase]` is in seconds. Timing-dependent,
/// so never part of a recorded table; compare commits only under the
/// malloc pins `benchmark/` uses.
pub fn report_wall_phases<const N: usize>(what: &str, names: [&str; N], laps: &[Vec<[f64; N]>]) {
    let reps = laps[0].len();
    eprintln!(
        "\n  host wall clock of {what}, slower rank, p10 / median over {reps} reps \
         (timing-dependent, not recorded):"
    );
    for (phase, name) in names.iter().enumerate() {
        let mut slower: Vec<f64> = (0..reps)
            .map(|rep| laps.iter().map(|rank| rank[rep][phase]).fold(0.0, f64::max))
            .collect();
        slower.sort_by(f64::total_cmp);
        eprintln!(
            "  {name:<12} {:>12} / {:>12}",
            fmt_seconds(slower[reps / 10]),
            fmt_seconds(slower[reps / 2])
        );
    }
}

/// Parses a `--flag value` style argument list: returns the value after
/// `name`, if present.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare flag is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses a comma-separated list of rank counts (default `1,2,4,…,64`).
pub fn parse_procs(args: &[String]) -> Vec<usize> {
    match arg_value(args, "--procs") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("bad --procs entry"))
            .collect(),
        None => vec![1, 2, 4, 8, 16, 32, 64],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--procs", "1,2, 4", "--csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_procs(&args), vec![1, 2, 4]);
        assert!(has_flag(&args, "--csv"));
        assert!(!has_flag(&args, "--json"));
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn second_formatting() {
        assert_eq!(fmt_seconds(2.5), "2.500 s");
        assert_eq!(fmt_seconds(2.5e-3), "2.500 ms");
        assert_eq!(fmt_seconds(2.5e-6), "2.500 µs");
    }

    #[test]
    fn timed_phase_measures_only_the_phase() {
        let outcome = gv_msgpass::Runtime::new(3).run(|comm| {
            comm.advance(5_000_000); // untimed prelude, 5 ms at default γ
            let ((), dt) = timed_phase(comm, |c| c.advance(1_000_000));
            dt
        });
        let t = parallel_time(&outcome.results);
        // 1 ms of phase compute (plus barrier latencies ≪ 1 ms); the 5 ms
        // prelude must not leak in — but the barrier synchronizes ranks,
        // so dt is ~1 ms, well under the 5 ms prelude.
        assert!((1.0e-3..2.0e-3).contains(&t), "t={t}");
    }
}
