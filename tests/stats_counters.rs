//! The runtime's counters are kept per rank and reported as one sum: the
//! sum must be the number an MPI trace of the same calls would show, at
//! any rank count, and a snapshot read while other ranks are still
//! counting must never run backwards.

use std::sync::atomic::{AtomicBool, Ordering};

use gv_msgpass::collectives::tree::whole;
use gv_msgpass::{AllreduceAlgorithm, CallKind, Runtime, ScanAlgorithm, StatsSnapshot};

/// ⌈log₂ p⌉.
fn log2_ceil(p: u64) -> u64 {
    u64::from(p.next_power_of_two().trailing_zeros())
}

/// Messages of one recursive-doubling allreduce: the ranks beyond the
/// largest power of two fold in and are answered (one message each way),
/// the rest exchange once per round.
fn allreduce_rd_messages(p: u64) -> u64 {
    let p2 = if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    };
    2 * (p - p2) + p2 * log2_ceil(p2)
}

/// Messages of one shifted recursive-doubling scan (`tests/scan_algorithms.rs`).
fn scan_rd_messages(p: u64) -> u64 {
    p * log2_ceil(p) - ((1 << log2_ceil(p)) - 1)
}

#[test]
fn the_summed_counters_equal_the_closed_form_of_a_known_call_mix() {
    for p in [1u64, 2, 5] {
        let sum = |a: u64, b: u64| a + b;
        let stats = Runtime::new(p as usize)
            .run(move |comm| {
                let rd = (AllreduceAlgorithm::RecursiveDoubling, 1);
                for _ in 0..3 {
                    comm.allreduce_by(rd, 1u64, whole(), |_| 8, sum);
                }
                for _ in 0..2 {
                    comm.barrier();
                }
                for _ in 0..2 {
                    comm.scan_both_by(
                        (ScanAlgorithm::RecursiveDoubling, 1),
                        1u64,
                        whole(),
                        |_| 8,
                        sum,
                    );
                }
                if p > 1 {
                    let (next, previous) = (
                        (comm.rank() + 1) % comm.size(),
                        (comm.rank() + comm.size() - 1) % comm.size(),
                    );
                    for i in 0..4 {
                        comm.send(next, 5, f64::from(i));
                        assert_eq!(comm.recv::<f64>(previous, 5), f64::from(i));
                    }
                }
                let mut pending = comm.iallreduce_by(rd, 1u64, whole(), |_| 8, sum);
                assert_eq!(pending.wait(), Ok(p));
                // One message over 1 KiB: it crosses a lane as the rest do.
                if p > 1 && comm.rank() < 2 {
                    let peer = 1 - comm.rank();
                    comm.send_vec(peer, 6, vec![0u64; 256]);
                    assert_eq!(comm.recv::<Vec<u64>>(peer, 6).len(), 256);
                }
            })
            .stats;

        let ring_sends = if p > 1 { 4 * p } else { 0 };
        let large_sends = if p > 1 { 2 } else { 0 };
        let eight_byte = 4 * allreduce_rd_messages(p) + 2 * scan_rd_messages(p) + ring_sends;
        let empty = 2 * p * log2_ceil(p); // barrier tokens are `()`
        assert_eq!(stats.calls(CallKind::Allreduce), 4 * p, "p={p}");
        assert_eq!(stats.calls(CallKind::Barrier), 2 * p, "p={p}");
        assert_eq!(stats.calls(CallKind::Scan), 2 * p, "p={p}");
        assert_eq!(stats.calls(CallKind::Send), ring_sends + large_sends, "p={p}");
        assert_eq!(stats.total_calls(), 8 * p + ring_sends + large_sends, "p={p}");
        assert_eq!(stats.collective_calls(), 8 * p, "p={p}");
        assert_eq!(stats.reduction_calls(), 6 * p, "p={p}");
        assert_eq!(
            stats.allreduce_algorithm_calls(AllreduceAlgorithm::RecursiveDoubling),
            4 * p,
            "p={p}"
        );
        assert_eq!(
            stats.scan_algorithm_calls(ScanAlgorithm::RecursiveDoubling),
            2 * p,
            "p={p}"
        );
        assert_eq!(stats.messages, eight_byte + empty + large_sends, "p={p}");
        assert_eq!(stats.bytes, 8 * eight_byte + 2048 * large_sends, "p={p}");
        // Allreduces and scans run as schedules; the barrier does not.
        assert_eq!(stats.requests_started, 6 * p, "p={p}");
        assert_eq!(stats.requests_completed, 6 * p, "p={p}");
        // Every message, whatever its size, is one send down a lane (the
        // other three fields stay 0), was received, and never found a
        // full ring.
        let t = stats.transport;
        assert_eq!(t.eager_sends, stats.messages, "p={p}");
        assert_eq!(t.queued_sends + t.pool_hits + t.pool_misses, 0, "p={p}");
        assert_eq!(t.total_recvs(), stats.messages, "p={p}");
        assert_eq!(t.overflow_sends + t.embargo_defers, 0, "p={p}");
    }
}

/// Every counter a snapshot carries, flattened.
fn flattened(s: &StatsSnapshot) -> Vec<u64> {
    let t = s.transport;
    let mut all = vec![
        s.messages,
        s.bytes,
        s.requests_started,
        s.requests_completed,
        t.eager_sends,
        t.queued_sends,
        t.overflow_sends,
        t.ring_recvs,
        t.stash_recvs,
        t.restashes,
        t.parks,
        t.embargo_defers,
        t.pool_hits,
        t.pool_misses,
    ];
    all.extend(CallKind::ALL.iter().map(|&kind| s.calls(kind)));
    all.extend(AllreduceAlgorithm::ALL.iter().map(|&a| s.allreduce_algorithm_calls(a)));
    all.extend(ScanAlgorithm::ALL.iter().map(|&a| s.scan_algorithm_calls(a)));
    all
}

#[test]
fn a_snapshot_taken_while_other_ranks_run_never_runs_backwards() {
    // Ranks 1 and 2 exchange and reduce between themselves; rank 0 does
    // nothing but read the counters until they are done.
    let done = AtomicBool::new(false);
    let outcome = Runtime::new(3).run(|comm| {
        let pair = comm.split(i64::from(comm.rank() > 0), 0);
        if comm.rank() == 0 {
            let mut snapshots = 0u64;
            let mut earlier = comm.stats().snapshot();
            while !done.load(Ordering::Acquire) {
                let later = comm.stats().snapshot();
                for (i, (now, then)) in flattened(&later).iter().zip(flattened(&earlier)).enumerate()
                {
                    assert!(*now >= then, "counter {i} went from {then} to {now}");
                }
                // `since` of two ordered snapshots is their plain difference.
                assert_eq!(
                    later.since(&earlier).messages,
                    later.messages - earlier.messages
                );
                earlier = later;
                snapshots += 1;
            }
            snapshots
        } else {
            let peer = 1 - pair.rank();
            for i in 0..20_000u64 {
                pair.send(peer, 5, i);
                assert_eq!(pair.recv::<u64>(peer, 5), i);
                if i % 8 == 0 {
                    assert_eq!(pair.allreduce(i, true, |_| 8, |a, b| a + b), 2 * i);
                }
            }
            pair.barrier();
            if pair.rank() == 0 {
                done.store(true, Ordering::Release);
            }
            0
        }
    });
    assert!(outcome.results[0] > 0, "rank 0 never got to read the counters");
    // The split's allgather (3 ranks, one message each in both circulant
    // rounds), then per pair rank: 20 000 sends, 2 500 allreduces of one
    // message each, one one-round barrier.
    let split = outcome.stats.messages - 2 * (20_000 + 2_500 + 1);
    assert_eq!(outcome.stats.calls(CallKind::Send), 40_000);
    assert_eq!(outcome.stats.calls(CallKind::Allreduce), 5_000);
    assert_eq!(outcome.stats.calls(CallKind::Allgather), 3);
    assert_eq!(split, 3 * 2, "messages of a 3-rank allgather");
}
