//! The paper's four **local-view** routines (§2).
//!
//! "The local-view abstractions can be supported by four routines. Two
//! reduction routines, LOCAL_ALLREDUCE and LOCAL_REDUCE, compute a
//! reduction and, respectively, leave the result on all of the processors
//! or a single processor. … Two scan routines, LOCAL_XSCAN and LOCAL_SCAN,
//! compute exclusive or inclusive scans respectively. These routines take
//! three arguments, the extra argument being the identity function, which
//! is necessary for the exclusive scan."
//!
//! Each routine takes the user's combine function (`(earlier, later) →
//! combined`) and one value per processor. §2.1's aggregation — `m`
//! independent values reduced at once, element-wise, in **one** message
//! per tree edge — is reproduced in `gv_rsmpi::agg`, as the ordinary
//! global-view calls over the `Elementwise` operator (experiment
//! TXT-AGG).

use crate::comm::Comm;

/// `LOCAL_REDUCE`: reduction of one value per rank; `Some(result)` on
/// `root`, `None` elsewhere. The tree is binomial, so the combine order
/// is rank order regardless of commutativity.
pub fn local_reduce<T: Send + 'static>(
    comm: &Comm,
    root: usize,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> Option<T> {
    comm.reduce(root, value, |_| std::mem::size_of::<T>(), combine)
}

/// `LOCAL_ALLREDUCE`: reduction of one value per rank, result on every
/// rank. Declared commutative: the local-view routines mirror MPI's
/// built-in operators, which all are; non-commutative user operators go
/// through the global-view layer, which plumbs `Op::COMMUTATIVE`.
pub fn local_allreduce<T: Clone + Send + 'static>(
    comm: &Comm,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> T {
    comm.allreduce(value, true, |_| std::mem::size_of::<T>(), combine)
}

/// `LOCAL_SCAN`: inclusive scan of one value per rank. Needs no identity
/// function (the paper notes MPI's equivalent leaves the exclusive scan's
/// first element undefined for the same reason).
pub fn local_scan<T: Clone + Send + 'static>(
    comm: &Comm,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> T {
    comm.scan_inclusive(value, |_| std::mem::size_of::<T>(), combine)
}

/// `LOCAL_XSCAN`: exclusive scan of one value per rank; rank 0 receives
/// `ident()`.
pub fn local_xscan<T: Clone + Send + 'static>(
    comm: &Comm,
    ident: impl FnOnce() -> T,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> T {
    comm.scan_exclusive(value, ident, |_| std::mem::size_of::<T>(), combine)
}

/// Derives the exclusive scan from an already-computed inclusive scan
/// **without communication**, given an inverse of the combine function:
/// `exclusive_r = inclusive_r ⊖ value_r` (paper §2: possible exactly when
/// "the combine function can be inverted").
pub fn local_xscan_from_scan<T>(
    inclusive: T,
    own_value: &T,
    mut uncombine: impl FnMut(&mut T, &T),
) -> T {
    let mut exclusive = inclusive;
    uncombine(&mut exclusive, own_value);
    exclusive
}

/// Derives the exclusive scan from an already-computed inclusive scan by
/// **shifting** the inclusive values one rank up — the paper's §2 fallback
/// for non-invertible operators ("the exclusive scan can only be computed
/// from the inclusive scan by shifting the values across the processors").
/// Rank 0 receives `ident()`. Costs one message per rank.
pub fn local_xscan_via_shift<T: Send + 'static>(
    comm: &Comm,
    inclusive: T,
    ident: impl FnOnce() -> T,
) -> T {
    comm.shift_up(inclusive).unwrap_or_else(ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    /// The paper's Listing 1 mink combine, expressed over sorted-descending
    /// fixed-size vectors, for use through the local-view interface.
    fn mink_combine(k: usize) -> impl FnMut(Vec<i32>, Vec<i32>) -> Vec<i32> {
        move |mut earlier: Vec<i32>, later: Vec<i32>| {
            for x in later {
                if x < earlier[0] {
                    earlier[0] = x;
                    for j in 1..k {
                        if earlier[j - 1] < earlier[j] {
                            earlier.swap(j - 1, j);
                        }
                    }
                }
            }
            earlier
        }
    }

    #[test]
    fn local_reduce_and_allreduce_agree() {
        let outcome = Runtime::new(8).run(|comm| {
            let v = (comm.rank() as i64 + 3) * 7;
            let all = local_allreduce(comm, v, |a, b| a.min(b));
            let rooted = local_reduce(comm, 2, v, |a, b| a.min(b));
            (all, rooted)
        });
        for (rank, (all, rooted)) in outcome.results.into_iter().enumerate() {
            assert_eq!(all, 21);
            assert_eq!(rooted, (rank == 2).then_some(21));
        }
    }

    #[test]
    fn paper_mink_through_local_view() {
        // §2's framing: each processor pre-accumulates a sorted vector of
        // its k local minimums, then the local-view reduction combines.
        let k = 3;
        let outcome = Runtime::new(4).run(move |comm| {
            // Rank r holds values {r·10 + 1, …, r·10 + 5}; its local top-k
            // vector is sorted high-to-low per Listing 1.
            let mut local: Vec<i32> = (1..=5).map(|i| (comm.rank() as i32) * 10 + i).collect();
            local.sort();
            local.truncate(k); // k local minimums …
            local.reverse(); // … "in sorted order from high to low" (§2)
            local_allreduce(comm, local, {
                let mut f = mink_combine(k);
                move |a, b| f(a, b)
            })
        });
        for result in outcome.results {
            // Global minimums are 1, 2, 3 (descending in state order).
            let mut sorted = result.clone();
            sorted.sort();
            assert_eq!(sorted, vec![1, 2, 3]);
        }
    }

    #[test]
    fn local_scans_match_prefix_oracle() {
        let outcome = Runtime::new(7).run(|comm| {
            let v = comm.rank() as u64 + 1;
            let inc = local_scan(comm, v, |a, b| a + b);
            let exc = local_xscan(comm, || 0, v, |a, b| a + b);
            (inc, exc)
        });
        for (r, (inc, exc)) in outcome.results.into_iter().enumerate() {
            let expected_inc: u64 = (1..=r as u64 + 1).sum();
            assert_eq!(inc, expected_inc);
            assert_eq!(exc, expected_inc - (r as u64 + 1));
        }
    }

    #[test]
    fn xscan_from_scan_for_invertible_ops_needs_no_communication() {
        let value = |comm: &Comm| (comm.rank() as i64 + 1) * 3;
        let outcome = Runtime::new(6).run(|comm| {
            let v = value(comm);
            let inclusive = local_scan(comm, v, |a, b| a + b);
            // Sum inverts: subtracting this rank's value leaves the
            // exclusive prefix.
            local_xscan_from_scan(inclusive, &v, |a: &mut i64, b| *a -= *b)
        });
        let expected: Vec<i64> = (0..6).map(|r| (0..r).map(|i| (i + 1) * 3).sum()).collect();
        assert_eq!(outcome.results, expected);
        // The derivation itself sends nothing: the run's messages are the
        // inclusive scan's. (Counted over whole runs — a snapshot taken
        // inside one also sees what the other ranks are still sending.)
        let scan_only = Runtime::new(6).run(|comm| local_scan(comm, value(comm), |a, b| a + b));
        assert_eq!(outcome.stats.messages, scan_only.stats.messages);
    }

    #[test]
    fn xscan_via_shift_for_noninvertible_ops() {
        // min cannot be inverted (paper §2) → derive by shifting.
        let outcome = Runtime::new(6).run(|comm| {
            let v = [(7, 0), (3, 0), (9, 0), (1, 0), (5, 0), (2, 0)][comm.rank()].0 as i64;
            let inclusive = local_scan(comm, v, |a: i64, b| a.min(b));
            local_xscan_via_shift(comm, inclusive, || i64::MAX)
        });
        assert_eq!(outcome.results, vec![i64::MAX, 7, 3, 3, 1, 1]);
    }

    #[test]
    fn both_xscan_derivations_agree_with_direct_xscan() {
        let outcome = Runtime::new(5).run(|comm| {
            let v = comm.rank() as i64 * 2 + 1;
            let direct = local_xscan(comm, || 0, v, |a, b| a + b);
            let inclusive = local_scan(comm, v, |a, b| a + b);
            let inverted = local_xscan_from_scan(inclusive, &v, |a: &mut i64, b| *a -= *b);
            let shifted = local_xscan_via_shift(comm, inclusive, || 0);
            (direct, inverted, shifted)
        });
        for (direct, inverted, shifted) in outcome.results {
            assert_eq!(direct, inverted);
            assert_eq!(direct, shifted);
        }
    }
}
