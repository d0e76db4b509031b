//! Exhaustive small-`p` matrix over the *non-blocking* collective,
//! [`Comm::iallreduce`](gv_msgpass::Comm::iallreduce) — the
//! request-handle mirror of `collectives_matrix.rs`.
//!
//! Every rank count from 1 through 9 × a commutative payload (u64 sum)
//! and a non-commutative one (string concatenation): several
//! `iallreduce` requests stay in flight while the ranks run every
//! blocking collective beside them — `scan_both`, `bcast` and `reduce` at
//! every root, `barrier` and `alltoallv` — and are then harvested out of
//! issue order. Every result, blocking or requested, is checked against
//! the rank-order sequential oracle. `iallreduce` is the one way onto the
//! progress engine — the rotating whole-state tree when commutative,
//! recursive doubling when not — so these are the overlaps that can
//! occur: its requests beside blocking calls on the same communicator.
//!
//! Two edge-case tests pin the request lifecycle contract: dropping a
//! request without waiting detaches its schedule (peers still complete,
//! nothing hangs), and waiting twice is the typed
//! [`RequestError::AlreadyCompleted`], never a deadlock.

use gv_msgpass::{wait_all, Request, RequestError, Runtime};

/// Requests kept in flight at once.
const IN_FLIGHT: usize = 3;

/// Runs one communicator through `IN_FLIGHT` overlapped `iallreduce`
/// requests and every blocking collective, asserting each result against
/// the rank-order sequential oracle.
fn exercise_nonblocking<T>(
    p: usize,
    commutative: bool,
    contrib: fn(usize) -> T,
    combine: fn(T, T) -> T,
    ident: fn() -> T,
    wire: fn(&T) -> usize,
) where
    T: Clone + Send + PartialEq + std::fmt::Debug + 'static,
{
    Runtime::new(p).run(|comm| {
        let r = comm.rank();
        let mine = contrib(r);
        let fold = |lo: usize, hi: usize| (lo..hi).fold(ident(), |acc, q| combine(acc, contrib(q)));
        let total = fold(0, p);
        // Request `i` reduces `contrib` repeated `i + 1` times per rank,
        // so a request that took another's traffic cannot pass.
        let repeated =
            |q: usize, i: usize| (0..=i).fold(ident(), |acc, _| combine(acc, contrib(q)));
        let oracle = |i: usize| (0..p).fold(ident(), |acc, q| combine(acc, repeated(q, i)));
        let mut requests: Vec<Request<T>> = (0..IN_FLIGHT)
            .map(|i| comm.iallreduce(repeated(r, i), commutative, wire, combine))
            .collect();

        let (ex, inc) = comm.scan_both(mine.clone(), wire, combine);
        let ex = ex.unwrap_or_else(ident);
        assert_eq!(ex, fold(0, r), "scan_both exclusive, p={p}, rank={r}");
        assert_eq!(inc, fold(0, r + 1), "scan_both inclusive, p={p}, rank={r}");
        for root in 0..p {
            let got = comm.bcast(root, (r == root).then(|| contrib(root)));
            assert_eq!(got, contrib(root), "bcast(root={root}), p={p}, rank={r}");
            let got = comm.reduce(root, mine.clone(), wire, combine);
            let expected = (r == root).then(|| total.clone());
            assert_eq!(got, expected, "reduce(root={root}), p={p}, rank={r}");
        }
        comm.barrier();
        let incoming = comm.alltoallv((0..p).map(|to| vec![mine.clone(); to + 1]).collect());
        let expected: Vec<Vec<T>> = (0..p).map(|from| vec![contrib(from); r + 1]).collect();
        assert_eq!(incoming, expected, "alltoallv, p={p}, rank={r}");

        // Harvested out of issue order: the last-issued request by a
        // test() poll loop (each test sweeps the engine, so the others
        // keep progressing underneath), the first by wait, the rest as
        // one batch.
        let last = IN_FLIGHT - 1;
        let got = loop {
            if let Some(out) = requests[last].test().expect("transport alive") {
                break out;
            }
        };
        assert_eq!(got, oracle(last), "iallreduce #{last}, p={p}, rank={r}");
        let got = requests[0].wait().expect("transport alive");
        assert_eq!(got, oracle(0), "iallreduce #0, p={p}, rank={r}");
        let batch = wait_all(&mut requests[1..last]).expect("transport alive");
        for (i, got) in (1..last).zip(batch) {
            assert_eq!(got, oracle(i), "iallreduce #{i}, p={p}, rank={r}");
        }
    });
}

#[test]
fn commutative_nonblocking_matrix_for_p_1_through_9() {
    for p in 1..=9 {
        // Distinct per-rank values (squares), so a dropped or duplicated
        // contribution cannot cancel out.
        exercise_nonblocking::<u64>(
            p,
            true,
            |r| (r as u64 + 1) * (r as u64 + 1),
            |a, b| a + b,
            || 0,
            |_| 8,
        );
    }
}

#[test]
fn non_commutative_nonblocking_matrix_for_p_1_through_9() {
    for p in 1..=9 {
        // String concatenation detects any out-of-rank-order combine.
        exercise_nonblocking::<String>(
            p,
            false,
            |r| format!("[{r}]"),
            |mut a, b| {
                a.push_str(&b);
                a
            },
            String::new,
            |s| s.len(),
        );
    }
}

#[test]
fn dropping_requests_without_waiting_does_not_hang() {
    for p in [1usize, 2, 5, 8] {
        let total: u64 = (1..=p as u64).sum();

        // Every rank abandons its request: the detached schedules still
        // run to completion underneath the follow-up blocking collective
        // (whose drive loop sweeps the engine), and the runtime cancels
        // whatever is left at rank exit.
        let outcome = Runtime::new(p).run(move |comm| {
            let r = comm.rank() as u64;
            drop(comm.iallreduce(r + 1, true, |_| 8, |a, b| a + b));
            comm.allreduce(r + 1, true, |_| 8, |a, b| a + b)
        });
        assert!(
            outcome.results.iter().all(|&t| t == total),
            "follow-up allreduce after a universal drop, p={p}"
        );

        // Asymmetric drop: even ranks abandon, odd ranks wait — the
        // waiters depend on the droppers' detached schedules being
        // polled, which happens inside the droppers' next collective.
        if p > 1 {
            let outcome = Runtime::new(p).run(move |comm| {
                let r = comm.rank();
                let mut req = comm.iallreduce(r as u64 + 1, true, |_| 8, |a, b| a + b);
                let got = if r % 2 == 0 {
                    drop(req);
                    None
                } else {
                    Some(req.wait().expect("transport alive"))
                };
                let follow = comm.allreduce(1u64, true, |_| 8, |a, b| a + b);
                (got, follow)
            });
            for (r, (got, follow)) in outcome.results.iter().enumerate() {
                if r % 2 == 1 {
                    assert_eq!(*got, Some(total), "odd waiter, p={p}, rank={r}");
                }
                assert_eq!(*follow, p as u64, "follow-up allreduce, p={p}, rank={r}");
            }
        }
    }
}

#[test]
fn waiting_twice_is_a_typed_error_not_a_hang() {
    Runtime::new(4).run(|comm| {
        let r = comm.rank() as u64;
        let mut req = comm.iallreduce(r + 1, true, |_| 8, |a, b| a + b);
        assert_eq!(req.wait().expect("first wait"), 10);
        // The result was taken: subsequent wait/test report it typed.
        assert_eq!(req.wait(), Err(RequestError::AlreadyCompleted));
        assert_eq!(req.test(), Err(RequestError::AlreadyCompleted));

        // wait_all refuses a batch containing a consumed request up
        // front — before parking — so the mistake cannot deadlock the
        // rank. The abandoned fresh request is detached on every rank
        // alike and cancelled at exit.
        let mut batch = vec![req, comm.iallreduce(r + 1, true, |_| 8, |a, b| a + b)];
        assert_eq!(wait_all(&mut batch), Err(RequestError::AlreadyCompleted));
    });
}
