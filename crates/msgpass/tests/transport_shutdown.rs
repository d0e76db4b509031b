//! Shutdown-path tests at the runtime level: a receive that can never
//! complete must surface as a typed [`ShutdownError`] — `Disconnected`
//! when the awaited peers exited cleanly, `Aborted` when a peer panicked
//! — including while the receiver is parked in the transport's
//! spin-then-park slow path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gv_msgpass::collectives::tree::whole;
use gv_msgpass::{AllreduceAlgorithm, Comm, Request, Runtime, ShutdownError, ShutdownKind, Source};

/// A non-blocking `u64` sum by recursive doubling.
fn rd_sum(comm: &Comm, value: u64) -> Request<u64> {
    let plan = (AllreduceAlgorithm::RecursiveDoubling, 1);
    comm.iallreduce_by(plan, value, whole(), |_| 8, |a, b| a + b)
}

/// Runs `recv` on rank 1 and returns the ShutdownError it unwound with.
fn observe_shutdown(peer: impl Fn() + Sync) -> (ShutdownError, Duration, u64) {
    let observed: Mutex<Option<(ShutdownError, Duration)>> = Mutex::new(None);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                // Give rank 1 time to pass its spin budget and park
                // before the shutdown condition appears.
                std::thread::sleep(Duration::from_millis(30));
                peer();
            } else {
                let started = Instant::now();
                let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    comm.recv::<u8>(0, 9)
                }));
                let payload = blocked.expect_err("recv should have unwound");
                let err = payload
                    .downcast::<ShutdownError>()
                    .expect("payload should be a ShutdownError");
                *observed.lock().unwrap() = Some((*err, started.elapsed()));
            }
        })
    }));
    let parks = match &run {
        Ok(outcome) => outcome.stats.transport.parks,
        // The peer's own panic propagates out of `run`; the stats are
        // unreachable then, which the parked assertions tolerate.
        Err(_) => u64::MAX,
    };
    let (err, waited) = observed
        .into_inner()
        .unwrap()
        .expect("rank 1 never observed a shutdown");
    (err, waited, parks)
}

#[test]
fn peer_exit_while_parked_is_disconnected() {
    // Each lane closes when its *single* producer exits, so a receiver
    // learns its awaited peer is gone.
    let (err, waited, parks) = observe_shutdown(|| {});
    assert_eq!(err.kind, ShutdownKind::Disconnected);
    assert_eq!(err.comm, 0);
    assert_eq!(err.src, Source::Rank(0));
    assert_eq!(err.tag, 9);
    // The receiver blocked across the peer's 30 ms sleep, so it was
    // parked — not spinning the whole time on this host.
    assert!(waited >= Duration::from_millis(20), "{waited:?}");
    assert!(parks >= 1, "receiver never parked");
    // Lane closure is detected promptly (closure unparks the receiver),
    // not only via the 50 ms timeout backstop repeating for long.
    assert!(waited < Duration::from_secs(2), "{waited:?}");
}

#[test]
fn peer_panic_while_parked_is_aborted() {
    let panicked = AtomicBool::new(false);
    let (err, waited, _) = observe_shutdown(|| {
        panicked.store(true, Ordering::Relaxed);
        panic!("peer rank exploded");
    });
    assert!(panicked.load(Ordering::Relaxed));
    assert_eq!(err.kind, ShutdownKind::Aborted);
    assert_eq!(err.src, Source::Rank(0));
    // Abort raises the flag and unparks every rank explicitly; the
    // 50 ms park timeout is only a backstop.
    assert!(waited < Duration::from_secs(2), "{waited:?}");
}

#[test]
fn in_flight_message_beats_sender_exit() {
    // A message already delivered to the transport survives its sender's
    // exit: the receiver gets the value first, and only the *next*
    // receive reports Disconnected.
    let outcome = Runtime::new(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 4, 77u8);
            0u8 // exits immediately; the lane closes behind the send
        } else {
            std::thread::sleep(Duration::from_millis(20));
            let got: u8 = comm.recv(0, 4);
            let next = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                comm.recv::<u8>(0, 4)
            }));
            let err = next
                .expect_err("second recv should shut down")
                .downcast::<ShutdownError>()
                .expect("payload should be a ShutdownError");
            assert_eq!(err.kind, ShutdownKind::Disconnected);
            got
        }
    });
    assert_eq!(outcome.results[1], 77);
}

#[test]
fn abort_reaches_any_source_receives() {
    // `Source::Any` watches every lane; a panic anywhere must still
    // unwind it as Aborted rather than leaving it waiting on the
    // survivors.
    let kinds: Mutex<Vec<ShutdownKind>> = Mutex::new(Vec::new());
    let run = std::panic::catch_unwind(|| {
        Runtime::new(4).run(|comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                panic!("rank 0 exploded");
            }
            let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                comm.recv_any::<u8>(6)
            }));
            if let Err(payload) = blocked {
                if let Ok(err) = payload.downcast::<ShutdownError>() {
                    assert_eq!(err.src, Source::Any);
                    kinds.lock().unwrap().push(err.kind);
                }
            }
        })
    });
    assert!(run.is_err(), "the panic must propagate");
    let kinds = kinds.into_inner().unwrap();
    assert_eq!(kinds.len(), 3, "all blocked ranks unwound");
    assert!(
        kinds.iter().all(|&k| k == ShutdownKind::Aborted),
        "{kinds:?}"
    );
}

#[test]
fn peer_exit_while_parked_in_wait_all_is_a_typed_request_error() {
    // The request layer's shutdown contract: rank 0 exits without ever
    // joining the collectives, so rank 1 — parked inside `wait_all` with
    // two requests in flight — must observe the closing lane as
    // `RequestError::Shutdown(Disconnected)` rather than deadlocking.
    let outcome = Runtime::new(2).run(|comm| {
        if comm.rank() == 0 {
            // Give rank 1 time to issue, sweep once, and park.
            std::thread::sleep(Duration::from_millis(30));
            return None; // exits; its lanes close behind it
        }
        let started = Instant::now();
        let mut reqs: Vec<_> = (0..2u64).map(|i| rd_sum(comm, i)).collect();
        let err = gv_msgpass::wait_all(&mut reqs).expect_err("peer never participated");
        Some((err, started.elapsed()))
    });
    let (err, waited) = outcome
        .results
        .into_iter()
        .nth(1)
        .unwrap()
        .expect("rank 1 observed the shutdown");
    match err {
        gv_msgpass::RequestError::Shutdown(err) => {
            assert_eq!(err.kind, ShutdownKind::Disconnected);
            assert_eq!(err.src, Source::Rank(0));
        }
        other => panic!("expected a shutdown error, got {other:?}"),
    }
    // The waiter blocked across the peer's 30 ms sleep (parked, not
    // spinning), and lane closure was detected promptly — not via
    // minutes of timeout backstops.
    assert!(waited >= Duration::from_millis(20), "{waited:?}");
    assert!(waited < Duration::from_secs(2), "{waited:?}");
}

#[test]
fn abort_surfaces_through_a_test_any_poll_loop() {
    // A rank polling `test_any` (never blocking in the transport) must
    // still observe a peer panic as a typed shutdown from the poll
    // itself.
    let kinds: Mutex<Vec<ShutdownKind>> = Mutex::new(Vec::new());
    let run = std::panic::catch_unwind(|| {
        Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                panic!("rank 0 exploded");
            }
            let mut reqs: Vec<_> = (0..2u64).map(|i| rd_sum(comm, i)).collect();
            loop {
                match gv_msgpass::test_any(&mut reqs) {
                    Ok(Some(_)) => panic!("requests cannot complete without rank 0"),
                    Ok(None) => std::thread::yield_now(),
                    Err(gv_msgpass::RequestError::Shutdown(err)) => {
                        kinds.lock().unwrap().push(err.kind);
                        break;
                    }
                    Err(other) => panic!("unexpected request error: {other:?}"),
                }
            }
        })
    });
    assert!(run.is_err(), "the panic must propagate");
    let kinds = kinds.into_inner().unwrap();
    assert_eq!(kinds, vec![ShutdownKind::Aborted]);
}

#[test]
fn request_dropped_during_abort_neither_hangs_nor_double_panics() {
    // Dropping an in-flight request after the runtime aborted must just
    // detach it — no hang waiting for a peer that is gone, no secondary
    // panic out of the drop glue.
    let started = Instant::now();
    let run = std::panic::catch_unwind(|| {
        Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(10));
                panic!("rank 0 exploded");
            }
            let req = rd_sum(comm, 1u64);
            // Linger until the abort has certainly been raised, then
            // drop the request without ever waiting on it.
            std::thread::sleep(Duration::from_millis(60));
            drop(req);
        })
    });
    assert!(run.is_err(), "rank 0's panic must propagate");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "dropping the request stalled the shutdown"
    );
}

#[test]
fn wait_timeout_times_out_then_completes() {
    // `wait_timeout` returning Ok(None) is a resumable state: the request
    // stays live and a later wait harvests the result normally.
    let outcome = Runtime::new(2).run(|comm| {
        if comm.rank() == 0 {
            // Join late so rank 1's first wait genuinely times out.
            std::thread::sleep(Duration::from_millis(120));
        }
        let mut req = rd_sum(comm, 1u64);
        if comm.rank() == 1 {
            let early = req
                .wait_timeout(Duration::from_millis(15))
                .expect("timeout is not an error");
            assert!(early.is_none(), "peer had not joined yet");
        }
        req.wait_timeout(Duration::from_secs(30))
            .expect("collective completes")
            .expect("30 s is not a real deadline here")
    });
    assert_eq!(outcome.results, vec![2, 2]);
}

#[test]
fn shutdown_under_wait_timeout_is_typed_and_prompt() {
    // A peer panic must fail a pending `wait_timeout` with the typed
    // shutdown error well before the caller's deadline — the timeout is
    // for lost progress, not the error path.
    let kinds: Mutex<Vec<(ShutdownKind, Duration)>> = Mutex::new(Vec::new());
    let run = std::panic::catch_unwind(|| {
        Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                panic!("rank 0 exploded");
            }
            let started = Instant::now();
            let mut req = rd_sum(comm, 1u64);
            match req.wait_timeout(Duration::from_secs(30)) {
                Err(gv_msgpass::RequestError::Shutdown(err)) => {
                    kinds.lock().unwrap().push((err.kind, started.elapsed()));
                }
                other => panic!("expected a typed shutdown, got {other:?}"),
            }
        })
    });
    assert!(run.is_err(), "the panic must propagate");
    let kinds = kinds.into_inner().unwrap();
    assert_eq!(kinds.len(), 1);
    let (kind, waited) = kinds[0];
    assert_eq!(kind, ShutdownKind::Aborted);
    assert!(
        waited < Duration::from_secs(5),
        "shutdown took {waited:?}, deadline-bound not event-bound"
    );
}

#[test]
fn abort_wakeup_is_the_explicit_unpark_not_the_park_timeout() {
    // Pin the abort-wakeup mechanism: with the park timeout configured
    // absurdly long, a parked receiver must still unwind promptly when a
    // peer panics — proving the wakeup is the abort path's explicit
    // unpark, not the timeout backstop expiring.
    let observed: Mutex<Option<(ShutdownError, Duration)>> = Mutex::new(None);
    let run = std::panic::catch_unwind(|| {
        Runtime::new(2)
            .park_timeout(Duration::from_secs(30))
            .run(|comm| {
                if comm.rank() == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("rank 0 exploded");
                }
                let started = Instant::now();
                let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    comm.recv::<u8>(0, 9)
                }));
                let err = blocked
                    .expect_err("recv should have unwound")
                    .downcast::<ShutdownError>()
                    .expect("payload should be a ShutdownError");
                *observed.lock().unwrap() = Some((*err, started.elapsed()));
            })
    });
    assert!(run.is_err(), "the panic must propagate");
    let (err, waited) = observed.into_inner().unwrap().expect("rank 1 observed the abort");
    assert_eq!(err.kind, ShutdownKind::Aborted);
    assert_eq!(err.rank, 1, "the error names the blocked rank");
    assert_eq!(err.culprit, Some(0), "the error names the first failure");
    let rendered = err.to_string();
    assert!(rendered.contains("rank 1"), "{rendered}");
    assert!(rendered.contains("p2p"), "{rendered}");
    // The receiver slept across rank 0's 50 ms delay, so it was parked —
    // and with a 30 s park timeout, only the explicit unpark explains a
    // prompt unwind.
    assert!(waited >= Duration::from_millis(40), "{waited:?}");
    assert!(waited < Duration::from_secs(5), "{waited:?}");
}

#[test]
fn peer_panic_fails_a_parked_wait_as_aborted() {
    // A peer panic (runtime abort) must unwind a parked single-request
    // `wait` with `RequestError::Shutdown(Aborted)`.
    let kinds: Mutex<Vec<ShutdownKind>> = Mutex::new(Vec::new());
    let run = std::panic::catch_unwind(|| {
        Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                panic!("rank 0 exploded");
            }
            let mut req = rd_sum(comm, 1u64);
            if let Err(gv_msgpass::RequestError::Shutdown(err)) = req.wait() {
                kinds.lock().unwrap().push(err.kind);
            }
        })
    });
    assert!(run.is_err(), "the panic must propagate");
    let kinds = kinds.into_inner().unwrap();
    assert_eq!(
        kinds,
        vec![ShutdownKind::Aborted],
        "rank 1's wait must fail typed"
    );
}
