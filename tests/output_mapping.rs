//! Large outputs are backed by huge pages while they are filled
//! (`gv_core::mem`, DESIGN.md "Where outputs land"): a 32 MiB scan output
//! takes a few hundred page faults, not 8192, and holds what the scalar
//! loop writes.
//!
//! The fault counts are the kernel's own (`/proc/thread-self/stat`, field
//! 10, minor faults of the calling thread), read around the call on a
//! thread that does nothing else. Where the host offers no transparent
//! huge pages on request the counts cannot move, and each test says so
//! and returns.
#![cfg(target_os = "linux")]

use std::sync::{Mutex, MutexGuard};

use gv_core::op::{rescan_block_scalar, ReduceScanOp, ScanKind};
use gv_core::ops::builtin::{min, sum};
use gv_core::seq;
use gv_msgpass::Runtime;
use gv_nas::is::{key_ranks, SortedBlock};

/// Elements of a 32 MiB output of 8-byte values: one rank's share of
/// `local_heavy`, and of NAS IS class A on two ranks.
const N: usize = 4 << 20;

/// Small pages in a 32 MiB window: what filling it costs unadvised.
const SMALL_PAGES: u64 = 8192;

/// One test's turn at the host: the tests hold up to 128 MiB each and
/// share its counter of refused huge pages, so they run one at a time.
struct Turn {
    _guard: MutexGuard<'static, ()>,
    /// [`refused_huge_pages`] when the turn began.
    refused_before: u64,
}

impl Turn {
    /// Waits for the turn — or says why this host cannot show the effect
    /// (no transparent huge pages, or mode `never`) and returns `None`.
    fn take() -> Option<Turn> {
        static TURN: Mutex<()> = Mutex::new(());
        let path = "/sys/kernel/mm/transparent_hugepage/enabled";
        match std::fs::read_to_string(path) {
            Err(error) => eprintln!("skipped: {path}: {error}"),
            Ok(mode) if mode.contains("[never]") => eprintln!("skipped: {path} selects `never`"),
            Ok(_) => {
                // A test that failed while holding it has already been reported.
                let guard = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                return Some(Turn {
                    _guard: guard,
                    refused_before: refused_huge_pages(),
                });
            }
        }
        None
    }

    /// Fails when `faults` reaches `bound` — unless the host ran out of
    /// huge pages meanwhile, which is its business and is reported, not
    /// failed.
    fn assert_below(&self, what: &str, faults: u64, bound: u64) {
        eprintln!("{what}: {faults} minor faults (bound {bound})");
        if faults < bound {
            return;
        }
        let refused = refused_huge_pages() - self.refused_before;
        if refused > 0 {
            eprintln!("{what}: the host refused {refused} huge pages meanwhile; not judged");
            return;
        }
        panic!("{what} took {faults} minor faults, expected fewer than {bound}");
    }
}

/// Minor faults the calling thread has taken so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs is mounted");
    // Field 2 is the thread's name in parentheses and may hold anything;
    // field 3 follows the last `)`.
    let after_name = &stat[stat.rfind(')').expect("field 2 is parenthesised") + 1..];
    after_name
        .split_ascii_whitespace()
        .nth(7)
        .and_then(|field| field.parse().ok())
        .expect("field 10 is a count")
}

/// Huge-page faults the host has had to serve with small pages so far
/// (no free 2 MiB block, or the memory cgroup refused the charge).
fn refused_huge_pages() -> u64 {
    std::fs::read_to_string("/proc/vmstat")
        .ok()
        .and_then(|vmstat| {
            let line = vmstat
                .lines()
                .find_map(|l| l.strip_prefix("thp_fault_fallback "))?;
            line.trim().parse().ok()
        })
        .unwrap_or(0)
}

/// `call` on a thread of its own: its result and the faults it took.
fn faults_of<R: Send>(call: impl FnOnce() -> R + Send) -> (R, u64) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let before = minor_faults();
                let result = call();
                (result, minor_faults() - before)
            })
            .join()
            .expect("the measured call panicked")
    })
}

/// `seq::scan` of `input` takes fewer than `bound` faults and returns
/// what the scalar loop writes, element for element.
fn check_sequential_scan<Op>(what: &str, op: &Op, input: &[Op::In], kind: ScanKind, bound: u64)
where
    Op: ReduceScanOp + Sync,
    Op::In: Sync,
    Op::Out: PartialEq + Send,
{
    let Some(turn) = Turn::take() else { return };
    let (out, faults) = faults_of(|| seq::scan(op, input, kind));
    turn.assert_below(what, faults, bound);
    let mut scalar = Vec::with_capacity(input.len());
    rescan_block_scalar(op, &mut op.ident(), input, kind, &mut scalar);
    assert!(out == scalar, "{what}: not the scalar loop's output");
}

fn ints(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 7919) % 1009 - 500).collect()
}

#[test]
fn a_sequential_scan_fills_its_output_two_mib_at_a_time() {
    // 15 huge pages and the ≤ 2 MiB of small ones at each end.
    let bound = SMALL_PAGES / 4;
    check_sequential_scan(
        "a 4 Mi-element scan",
        &sum::<i64>(),
        &ints(N),
        ScanKind::Inclusive,
        bound,
    );
}

#[test]
fn a_float_scan_through_the_network_kernel_does_too() {
    // This kernel pre-fills its window with `resize`, then overwrites it;
    // `min` over finite values is regrouping-invariant, so it still
    // equals the scalar loop bit for bit.
    let input: Vec<f64> = ints(N).iter().map(|&v| v as f64 / 8.0).collect();
    let bound = SMALL_PAGES / 4;
    check_sequential_scan(
        "a 4 Mi-element float scan",
        &min::<f64>(),
        &input,
        ScanKind::Exclusive,
        bound,
    );
}

#[test]
fn an_eight_mib_output_keeps_at_most_its_two_ends_on_small_pages() {
    // 2048 small pages unadvised. Advised: 3 huge pages, < 1024 small ones
    // at the ends, and whatever else the thread touches.
    let bound = 1024 + 512;
    check_sequential_scan(
        "a 1 Mi-element scan",
        &sum::<i64>(),
        &ints(1 << 20),
        ScanKind::Inclusive,
        bound,
    );
}

#[test]
fn a_global_view_scan_does_on_every_rank() {
    let Some(turn) = Turn::take() else { return };
    // Rank r holds the integers r·N .. (r+1)·N, so the inclusive sum at
    // global position g is g(g+1)/2.
    let outcome = Runtime::new(2).run(|comm| {
        let base = (comm.rank() * N) as i64;
        let local: Vec<i64> = (base..base + N as i64).collect();
        let before = minor_faults();
        let out = gv_rsmpi::scan(comm, &sum::<i64>(), &local, ScanKind::Inclusive);
        let faults = minor_faults() - before;
        let exact = out
            .iter()
            .zip(&local)
            .all(|(&got, &g)| got == g * (g + 1) / 2);
        (faults, out.len(), exact)
    });
    for (rank, (faults, len, exact)) in outcome.results.into_iter().enumerate() {
        turn.assert_below(&format!("rank {rank}'s scan"), faults, SMALL_PAGES / 4);
        assert_eq!(len, N);
        assert!(exact, "rank {rank}'s output is not the closed form");
    }
}

#[test]
fn class_a_key_ranks_do() {
    let Some(turn) = Turn::take() else { return };
    // The second rank's block of class A on two ranks: 2²² keys.
    let block = SortedBlock {
        keys: vec![0; N],
        global_offset: N as u64,
    };
    let (ranks, faults) = faults_of(|| key_ranks(&block));
    turn.assert_below("class A key_ranks", faults, SMALL_PAGES / 4);
    assert!(ranks.iter().copied().eq(N as u64..2 * N as u64));
}
