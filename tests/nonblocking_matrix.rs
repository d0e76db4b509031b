//! Exhaustive small-`p` matrix over the *non-blocking* collectives —
//! the request-handle mirror of `collectives_matrix.rs`.
//!
//! Every rank count from 1 through 9 × every `i*` entry point (rooted
//! `ireduce` at every root with all `p` requests in flight, `ibcast`
//! from every root in flight at once, the cost-driven `iallreduce`
//! selector plus the named recursive-doubling schedule, both scans,
//! circulant `ireduce_scatter_block`, and the splittable selector)
//! × a commutative payload (u64 sum) and a non-commutative one (string
//! concatenation) — all checked against the same sequential oracle the
//! blocking matrix uses, but with multiple requests deliberately in
//! flight and harvested out of issue order.
//!
//! Two edge-case tests pin the request lifecycle contract: dropping a
//! request without waiting detaches its schedule (peers still complete,
//! nothing hangs), and waiting twice is the typed
//! [`RequestError::AlreadyCompleted`], never a deadlock.

use gv_msgpass::collectives::tree::whole;
use gv_msgpass::{wait_all, AllreduceAlgorithm, Request, RequestError, Runtime};

/// Runs one communicator through every request-based collective with
/// requests overlapped, asserting each result against the rank-order
/// sequential oracle.
///
/// `seg_contrib(rank, segment)` feeds `ireduce_scatter_block`, which
/// combines in stride order, not rank order, and is therefore only exercised when
/// `commutative` holds.
fn exercise_nonblocking<T>(
    p: usize,
    commutative: bool,
    contrib: fn(usize) -> T,
    seg_contrib: fn(usize, usize) -> T,
    combine: fn(T, T) -> T,
    ident: fn() -> T,
    wire: fn(&T) -> usize,
) where
    T: Clone + Send + PartialEq + std::fmt::Debug + 'static,
{
    Runtime::new(p).run(|comm| {
        let r = comm.rank();
        let mine = contrib(r);
        let fold = |lo: usize, hi: usize| {
            let mut acc = ident();
            for rank in lo..hi {
                acc = combine(acc, contrib(rank));
            }
            acc
        };
        let total = fold(0, p);

        // Every rooted reduce in flight at once, harvested as a batch.
        let mut reduces: Vec<Request<Option<T>>> = (0..p)
            .map(|root| comm.ireduce(root, mine.clone(), wire, combine))
            .collect();
        for (root, got) in wait_all(&mut reduces)
            .expect("transport alive")
            .into_iter()
            .enumerate()
        {
            if r == root {
                assert_eq!(
                    got.as_ref(),
                    Some(&total),
                    "ireduce(root={root}) at the root, p={p}, rank={r}"
                );
            } else {
                assert!(got.is_none(), "ireduce(root={root}) off-root, p={p}, rank={r}");
            }
        }

        // Broadcasts from every root in flight at once.
        let mut bcasts: Vec<Request<T>> = (0..p)
            .map(|root| comm.ibcast(root, (r == root).then(|| contrib(root))))
            .collect();
        for (root, got) in wait_all(&mut bcasts)
            .expect("transport alive")
            .into_iter()
            .enumerate()
        {
            assert_eq!(got, contrib(root), "ibcast(root={root}), p={p}, rank={r}");
        }

        // The selector allreduce and the named recursive-doubling
        // schedule overlapped; the later one is completed *first*, by a
        // test() poll loop (each test sweeps the engine, so the earlier
        // request keeps progressing underneath).
        let mut ar = comm.iallreduce(mine.clone(), commutative, wire, combine);
        let plan = (AllreduceAlgorithm::RecursiveDoubling, 1);
        let mut rd = comm.iallreduce_by(plan, mine.clone(), whole(), wire, combine);
        let rd_result = loop {
            if let Some(out) = rd.test().expect("transport alive") {
                break out;
            }
        };
        assert_eq!(
            rd_result, total,
            "recursive doubling by request, p={p}, rank={r}"
        );
        assert_eq!(
            ar.wait().expect("transport alive"),
            total,
            "iallreduce (selector), p={p}, rank={r}, commutative={commutative}"
        );

        // Both scans in flight; the later-issued exclusive half is
        // harvested first.
        let mut inc = comm.iscan_inclusive(mine.clone(), wire, combine);
        let mut exc = comm.iscan_exclusive(mine.clone(), ident, wire, combine);
        assert_eq!(
            exc.wait().expect("transport alive"),
            fold(0, r),
            "iscan_exclusive, p={p}, rank={r}"
        );
        assert_eq!(
            inc.wait().expect("transport alive"),
            fold(0, r + 1),
            "iscan_inclusive, p={p}, rank={r}"
        );

        // The circulant reduce-scatter combines in stride order: commutative only.
        if commutative {
            let segments: Vec<T> = (0..p).map(|j| seg_contrib(r, j)).collect();
            let mut rs = comm.ireduce_scatter_block(segments, wire, combine);
            let mut expected = ident();
            for s in 0..p {
                expected = combine(expected, seg_contrib(s, r));
            }
            assert_eq!(
                rs.wait().expect("transport alive"),
                expected,
                "ireduce_scatter_block, p={p}, rank={r}"
            );
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
            |s, j| (s as u64 + 1) * 100 + j as u64,
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
            |_, _| String::new(),
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
fn splittable_nonblocking_selector_matches_oracle_for_p_1_through_9() {
    // Three wire sizes in flight at once, so the three-way selector's
    // different schedule choices (including reduce-scatter + allgather
    // at the large end) overlap on one communicator; harvested in
    // reverse issue order. Length 3 forces empty segments for p > 3.
    const LENS: [usize; 3] = [3, 64, 4096];
    for p in 1..=9usize {
        Runtime::new(p).run(move |comm| {
            let r = comm.rank();
            let mut reqs: Vec<Request<Vec<u64>>> = LENS
                .iter()
                .map(|&len| {
                    let mine: Vec<u64> = (0..len).map(|i| (r * len + i) as u64).collect();
                    comm.iallreduce_splittable(
                        mine,
                        true,
                        gv_core::split::split_vec_segments,
                        gv_core::split::unsplit_vec_segments,
                        |v: &Vec<u64>| v.len() * 8,
                        |mut a, b| {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x += y;
                            }
                            a
                        },
                    )
                })
                .collect();
            for (idx, &len) in LENS.iter().enumerate().rev() {
                let got = reqs[idx].wait().expect("transport alive");
                let expected: Vec<u64> = (0..len)
                    .map(|i| (0..p).map(|q| (q * len + i) as u64).sum())
                    .collect();
                assert_eq!(got, expected, "iallreduce_splittable, p={p} len={len}");
            }
        });
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
