//! What the rank's one wait loop guarantees by the order of its
//! statements — attempt, sweep the engine, back off only when the round
//! consumed nothing, park only after one more round found nothing — and
//! the tag salt window that bounds how many collectives may overlap.

use std::sync::{Barrier, Mutex};
use std::time::Duration;

use gv_msgpass::{RankState, RunError, Runtime, ShutdownError, ShutdownKind};

#[test]
fn a_zero_timeout_still_delivers_what_has_arrived() {
    // Both ranks launch, then meet at a barrier that is not the library's
    // (so nothing sweeps the engine): each rank's only missing message is
    // now in its ring. The sweep precedes the deadline check, so a wait
    // that may not wait at all still finds the result.
    let launched = Barrier::new(2);
    let outcome = Runtime::new(2).run(|comm| {
        let mut req = comm.iallreduce(comm.rank() as u64 + 1, true, |_| 8, |a, b| a + b);
        launched.wait();
        req.wait_timeout(Duration::ZERO).expect("no shutdown")
    });
    assert_eq!(outcome.results, vec![Some(3), Some(3)]);
}

#[test]
fn a_zero_timeout_leaves_an_unfinished_request_live() {
    // Rank 1 launches only after rank 0's zero-timeout wait returned, so
    // that wait cannot have a result; the request must survive it.
    let timed_out = Barrier::new(2);
    let outcome = Runtime::new(2).run(|comm| {
        if comm.rank() == 1 {
            timed_out.wait();
        }
        let mut req = comm.iallreduce(comm.rank() as u64 + 1, true, |_| 8, |a, b| a + b);
        if comm.rank() == 0 {
            let early = req.wait_timeout(Duration::ZERO).expect("a timeout is not an error");
            assert_eq!(early, None, "the peer had not launched yet");
            timed_out.wait();
        }
        req.wait().expect("the request is still live")
    });
    assert_eq!(outcome.results, vec![3, 3]);
}

#[test]
fn watchdog_reports_a_stall_behind_unclaimed_traffic() {
    // A three-way deadlock in which rank 2 first leaves rank 0 a message
    // nobody ever receives. What sits unclaimed in another lane's ring
    // must not keep rank 0 from parking — a rank that only spins is never
    // `Blocked`, and the watchdog would wait on it for ever — whether
    // rank 0 waits in a plain receive or in a collective.
    for collective in [false, true] {
        let err = Runtime::new(3)
            .watchdog(Duration::from_millis(150))
            .try_run(|comm| {
                let pair = comm.split(i64::from(comm.rank() == 2), 0);
                match comm.rank() {
                    0 if collective => {
                        pair.allreduce(1u64, true, |_| 8, |a, b| a + b);
                    }
                    0 => {
                        let _: u8 = comm.recv(1, 77);
                    }
                    rank => {
                        if rank == 2 {
                            comm.send(0, 5, 0u8);
                        }
                        let _: u8 = comm.recv(0, 78);
                    }
                }
            })
            .unwrap_err();
        match err {
            RunError::Stalled(report) => {
                let r0 = &report.ranks[0];
                assert_eq!(r0.state, RankState::Blocked, "collective={collective}");
                let on = r0.blocked_on.expect("rank 0 recorded its wait");
                assert_eq!(on.src, Some(1), "collective={collective}");
                assert_eq!(on.op == "p2p", !collective, "{on}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }
}

#[test]
fn the_4097th_overlapping_collective_is_refused() {
    // Rank 1 never joins the allreduces (it waits for a message rank 0
    // would only send afterwards), so every one rank 0 launches stays in
    // flight; number 4096 would draw number 0's tags again.
    let rank1_saw: Mutex<Option<ShutdownKind>> = Mutex::new(None);
    let err = Runtime::new(2)
        .try_run(|comm| {
            if comm.rank() == 0 {
                let _unwaited: Vec<_> = (0..4097u64)
                    .map(|i| comm.iallreduce(i, true, |_| 8, |a, b| a + b))
                    .collect();
                comm.send(1, 9, 0u8);
            } else {
                let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    comm.recv::<u8>(0, 9)
                }));
                let payload = blocked.expect_err("rank 0 never gets as far as the send");
                if let Some(err) = payload.downcast_ref::<ShutdownError>() {
                    *rank1_saw.lock().unwrap() = Some(err.kind);
                }
                std::panic::resume_unwind(payload);
            }
        })
        .unwrap_err();
    match err {
        RunError::Failed(report) => {
            assert_eq!(report.rank, 0);
            let message = &report.message;
            assert!(message.contains("salt window"), "{message}");
            assert!(message.contains("communicator 0"), "{message}");
            assert!(message.contains("#4096") && message.contains("#0"), "{message}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(rank1_saw.into_inner().unwrap(), Some(ShutdownKind::Aborted));
}
