//! What the rank's one wait loop guarantees by the order of its
//! statements — attempt, sweep the engine, back off only when the round
//! consumed nothing, park only after one more round found nothing — and
//! what a collective's match key guarantees: any number of collectives
//! may be in flight on one communicator, and no user tag matches one.

use std::sync::Barrier;
use std::time::Duration;

use gv_msgpass::{RankState, RunError, Runtime};

#[test]
fn a_zero_timeout_still_delivers_what_has_arrived() {
    // Both ranks launch, then meet at a barrier that is not the library's
    // (so nothing sweeps the engine): each rank's only missing message is
    // now in its ring. (A non-commutative request runs recursive
    // doubling, whose one exchange both ranks send at launch; the tree a
    // commutative one runs would leave the leaf waiting on the root's
    // next sweep.) The sweep precedes the deadline check, so a wait that
    // may not wait at all still finds the result.
    let launched = Barrier::new(2);
    let outcome = Runtime::new(2).run(|comm| {
        let mut req = comm.iallreduce(comm.rank() as u64 + 1, false, |_| 8, |a, b| a + b);
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
            let early = req
                .wait_timeout(Duration::ZERO)
                .expect("a timeout is not an error");
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
fn five_thousand_unwaited_collectives_on_one_communicator_all_complete() {
    // Rank 0 launches every allreduce before rank 1 launches any, so all
    // of them are in flight on it at once; a collective's keys carry its
    // call sequence, so none can match another's traffic, whatever the
    // order they are harvested in.
    const N: u64 = 5_000;
    let outcome = Runtime::new(2).run(|comm| {
        let r = comm.rank() as u64;
        if r == 1 {
            let () = comm.recv(0, 9);
        }
        let mut requests: Vec<_> = (0..N)
            .map(|i| comm.iallreduce(2 * i + r, true, |_| 8, |a, b| a + b))
            .collect();
        if r == 0 {
            comm.send(1, 9, ());
        }
        requests
            .iter_mut()
            .rev()
            .map(|req| req.wait().expect("no shutdown"))
            .collect::<Vec<u64>>()
    });
    let oracle: Vec<u64> = (0..N).rev().map(|i| 4 * i + 1).collect();
    assert_eq!(outcome.results, vec![oracle.clone(), oracle]);
}

#[test]
fn a_user_tag_never_matches_a_collective() {
    // 0xF000_0100 is a plain user tag, sent before a bcast and received
    // after it on the same pair: each receive gets its own message.
    let outcome = Runtime::new(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 0xF000_0100, 7u64);
        }
        let word = comm.bcast(0, (comm.rank() == 0).then_some(0xB0Bu64));
        let p2p = if comm.rank() == 1 {
            comm.recv::<u64>(0, 0xF000_0100)
        } else {
            7
        };
        (word, p2p)
    });
    assert_eq!(outcome.results, vec![(0xB0B, 7), (0xB0B, 7)]);
}
