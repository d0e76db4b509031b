//! Chaos soak: pinned fault seeds across a blocking + non-blocking
//! collective matrix.
//!
//! The contract this suite pins (DESIGN.md "Failure semantics"):
//!
//! - **Delay-only plans are invisible to results.** Embargoed delivery
//!   reorders nothing observable (per-triple FIFO holds), so every
//!   collective still produces its oracle value.
//! - **Death plans end in a clean typed abort.** An injected kill must
//!   surface as [`RunError::Failed`] whose report carries the
//!   [`InjectedKill`] payload naming the planned rank/op — never as a
//!   hang, a stall report, or an untyped panic.
//! - **Zero hangs.** Every run is watchdog-supervised; a deadlock would
//!   surface as [`RunError::Stalled`] and fail the assertion instead of
//!   wedging the test binary.
//! - **Failing seeds replay.** A [`FaultPlan`] is pure data keyed by its
//!   seed, so re-running a seed reproduces the same injections, results,
//!   and fault tallies bit-for-bit.

use std::time::Duration;

use gv_msgpass::collectives::tree::whole;
use gv_msgpass::{AllreduceAlgorithm, Comm, FaultOp, FaultPlan, FaultSummary, RunError, Runtime};

/// Pinned seeds — 24 of them, covering every (scenario, ranks, wait path)
/// combination the derivation below cycles through. A CI failure prints
/// the seed; replaying it locally reproduces the run exactly.
const SEEDS: [u64; 24] = [
    0xA11C_E000, 0xB0B5_0001, 0xCAFE_0002, 0xD00D_0003, 0xE66E_0004, 0xF00F_0005,
    0x1234_0006, 0x2345_0007, 0x3456_0008, 0x4567_0009, 0x5678_000A, 0x6789_000B,
    0x789A_000C, 0x89AB_000D, 0x9ABC_000E, 0xABCD_000F, 0xBCDE_0010, 0xCDEF_0011,
    0xDEF0_0012, 0xEF01_0013, 0xF012_0014, 0x0123_0015, 0x1357_0016, 0x2468_0017,
];

/// Far above any injected disruption (≤ 7 ms here); reached only by a
/// genuine hang, which it converts into a failed assertion.
const WATCHDOG: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Probabilistic send delays only — results must be oracle-correct.
    DelayOnly,
    /// Delays plus a counted stall of one rank — still oracle-correct.
    DelayAndStall,
    /// A counted kill — the run must abort typed, not hang.
    Kill,
}

/// One soak case, derived deterministically from the seed's position so
/// the matrix covers all three scenarios, both wait paths, and world
/// sizes 2..=6 (including non-powers-of-two, which exercise the
/// non-power-of-two collective schedules under chaos).
struct Case {
    seed: u64,
    ranks: usize,
    scenario: Scenario,
    /// Odd cases harvest the non-blocking allreduce through
    /// `wait_timeout`, even ones through `wait` — both wait paths soak.
    use_wait_timeout: bool,
}

fn case(index: usize, seed: u64) -> Case {
    Case {
        seed,
        ranks: 2 + (index % 5),
        scenario: match index % 3 {
            0 => Scenario::DelayOnly,
            1 => Scenario::DelayAndStall,
            _ => Scenario::Kill,
        },
        use_wait_timeout: index % 2 == 1,
    }
}

fn plan_for(case: &Case) -> FaultPlan {
    // 250‰..=749‰ of sends delayed by up to 2 ms — enough traffic churn
    // to shuffle real arrival order without slowing the suite down.
    let permille = 250 + (case.seed % 500) as u32;
    let plan = FaultPlan::new(case.seed).delay_sends(permille, Duration::from_millis(2));
    match case.scenario {
        Scenario::DelayOnly => plan,
        Scenario::DelayAndStall => {
            // Stall a seed-chosen rank at its 2nd collective entry; the
            // workload enters at least three, so the trigger always fires.
            let rank = (case.seed % case.ranks as u64) as usize;
            plan.stall(rank, FaultOp::Collective, 2, Duration::from_millis(7))
        }
        Scenario::Kill => {
            let rank = (case.seed % case.ranks as u64) as usize;
            // Cycle the counted operation class; nth stays low enough
            // that every rank performs it in this workload.
            let (op, nth) = match case.seed % 3 {
                0 => (FaultOp::Send, 1),
                1 => (FaultOp::Recv, 1),
                _ => (FaultOp::Collective, 2),
            };
            plan.kill(rank, op, nth)
        }
    }
}

/// The soak workload: a point-to-point ring shift (the only phase with
/// blocking `recv` calls, which is what `FaultOp::Recv` triggers count),
/// three blocking collectives, and one non-blocking allreduce — every
/// result returned for oracle checking.
fn workload(comm: &Comm, use_wait_timeout: bool) -> (u64, u64, u64, u64, u64) {
    let r = comm.rank() as u64;
    let shifted = comm.shift_up_periodic(r);
    let sum = comm.allreduce(r + 1, true, |_| 8, |a, b| a + b);
    let scan = comm.scan_inclusive(r + 1, |_| 8, |a, b| a + b);
    let word = comm.bcast(0, (comm.rank() == 0).then_some(0x00C0_FFEEu64));
    let plan = (AllreduceAlgorithm::RecursiveDoubling, 1);
    let mut req = comm.iallreduce_by(plan, r + 1, whole(), |_| 8, |a, b| a + b);
    let isum = if use_wait_timeout {
        match req.wait_timeout(Duration::from_secs(30)) {
            Ok(Some(v)) => v,
            Ok(None) => panic!("non-blocking allreduce missed a 30 s timeout"),
            Err(e) => panic!("non-blocking allreduce shut down: {e}"),
        }
    } else {
        match req.wait() {
            Ok(v) => v,
            Err(e) => panic!("non-blocking allreduce shut down: {e}"),
        }
    };
    (shifted, sum, scan, word, isum)
}

/// Per-rank oracle for the workload under `ranks` ranks.
fn oracle(ranks: usize, rank: usize) -> (u64, u64, u64, u64, u64) {
    let p = ranks as u64;
    let r = rank as u64;
    let total = p * (p + 1) / 2;
    ((r + p - 1) % p, total, (r + 1) * (r + 2) / 2, 0x00C0_FFEE, total)
}

type SoakResults = Vec<(u64, u64, u64, u64, u64)>;

fn run_case(case: &Case) -> Result<(SoakResults, FaultSummary), RunError> {
    let plan = plan_for(case);
    let use_wait_timeout = case.use_wait_timeout;
    Runtime::new(case.ranks)
        .watchdog(WATCHDOG)
        .fault_plan(plan)
        .try_run(|comm| workload(comm, use_wait_timeout))
        .map(|outcome| (outcome.results, outcome.faults))
}

#[test]
fn soak_all_pinned_seeds() {
    let mut total_delays = 0u64;
    let mut kills_seen = 0u64;
    for (index, &seed) in SEEDS.iter().enumerate() {
        let case = case(index, seed);
        let label = format!(
            "seed {seed:#x} (index {index}, p={}, {:?})",
            case.ranks, case.scenario
        );
        match case.scenario {
            Scenario::DelayOnly | Scenario::DelayAndStall => {
                let (results, faults) = match run_case(&case) {
                    Ok(ok) => ok,
                    Err(err) => panic!("{label}: expected a clean run, got: {err}"),
                };
                for (rank, &got) in results.iter().enumerate() {
                    assert_eq!(got, oracle(case.ranks, rank), "{label}: rank {rank}");
                }
                total_delays += faults.delayed_sends;
                assert_eq!(faults.kills, 0, "{label}");
                if case.scenario == Scenario::DelayAndStall {
                    assert!(faults.stalls >= 1, "{label}: stall trigger never fired");
                } else {
                    assert_eq!(faults.stalls, 0, "{label}");
                }
            }
            Scenario::Kill => {
                let err = match run_case(&case) {
                    Err(err) => err,
                    Ok(_) => panic!("{label}: a killed rank cannot complete"),
                };
                let report = match err {
                    RunError::Failed(report) => report,
                    other => panic!("{label}: expected RunError::Failed, got: {other}"),
                };
                let kill = report
                    .injected
                    .unwrap_or_else(|| panic!("{label}: death not typed: {}", report.message));
                assert_eq!(kill.rank, report.rank, "{label}: culprit mismatch");
                assert_eq!(
                    kill.rank,
                    (seed % case.ranks as u64) as usize,
                    "{label}: wrong rank died"
                );
                kills_seen += 1;
            }
        }
    }
    // The delay permille is ≥ 250 on every seed, so across 16 delaying
    // runs the embargo path must actually have been exercised.
    assert!(total_delays > 0, "no send was ever delayed across the soak");
    assert_eq!(kills_seen, SEEDS.len() as u64 / 3, "kill seeds miscounted");
}

#[test]
fn failing_seeds_replay_deterministically() {
    // A delay seed rerun is bit-identical: same results, same injection
    // tallies. This is what makes a red soak seed debuggable — replaying
    // it locally reproduces the exact run CI saw.
    let case = case(1, SEEDS[1]);
    assert_eq!(case.scenario, Scenario::DelayAndStall);
    let first = run_case(&case).expect("delay seeds complete");
    let second = run_case(&case).expect("delay seeds complete");
    assert_eq!(first.0, second.0, "results diverged between replays");
    assert_eq!(first.1, second.1, "fault tallies diverged between replays");
    assert!(first.1.delayed_sends > 0 || first.1.stalls > 0, "seed injected nothing");
}

#[test]
fn kill_seeds_replay_the_same_death() {
    let case = case(2, SEEDS[2]);
    assert_eq!(case.scenario, Scenario::Kill);
    let death = |c: &Case| match run_case(c) {
        Err(RunError::Failed(report)) => report.injected.expect("typed kill"),
        other => panic!("kill seed must fail typed, got {other:?}"),
    };
    assert_eq!(death(&case), death(&case), "replayed kill diverged");
}
