//! Shifted recursive-doubling parallel prefix (Hillis–Steele style).
//!
//! The algorithm is a shifted recursive doubling valid for any rank count
//! and any associative operator: in the round with distance `d`, rank `r`
//! sends its current inclusive partial (covering ranks
//! `max(0, r−d+1) ..= r`) to rank `r+d` and receives from `r−d` a partial
//! covering `max(0, r−2d+1) ..= r−d` — elements strictly *earlier* than
//! anything received before, so combines always run `(earlier, later)` and
//! non-commutative operators are safe.
//!
//! Both the inclusive and exclusive results are produced in the same
//! ⌈log₂ p⌉ rounds; the exclusive scan needs an identity supplier for rank
//! 0, mirroring the paper's point that `LOCAL_XSCAN` requires the identity
//! function while MPI instead leaves the first element undefined.
//!
//! It is the latency-optimal schedule and the one every scan runs
//! ([`scan_inclusive`](Comm::scan_inclusive) and friends, in
//! `collectives/select.rs`).
//!
//! The rounds are one loop, generic over a rank's partials (`Partials`,
//! `exchange.rs`): by value a round sends a clone of the inclusive
//! partial and combines what arrives into both halves; a counting
//! state's round sends the units its partial covers or the state
//! (`counting.rs`), so a partial that covers few inputs crosses as their
//! slot indices. A counting scan is exclusive only.

use super::exchange::Partials;
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::request::recv;

/// Shifted recursive-doubling scan over the partials `s` of a rank.
/// Which halves the caller consumes gates only local clones and combines
/// (`Crossing::partials`) — the message schedule (count, bytes, order)
/// is identical in every mode, so virtual clocks and traffic accounting
/// cannot depend on the mode. Output is `(exclusive, inclusive)` with the
/// unrequested half `None` (and the exclusive half always `None` on rank
/// 0).
pub(crate) async fn scan_rd<T, S: Partials<T>>(
    comm: Comm,
    mut s: S,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
) -> Result<(Option<T>, Option<T>), ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    let tag = TagBase::Scan.key(seq);
    let mut dist = 1;
    while dist < p {
        // Whether this rank sends after this round.
        let sends_on = r + 2 * dist < p;
        if r + dist < p {
            s.send((&comm, r + dist, tag), &bytes_of, sends_on);
        }
        if r >= dist {
            let earlier = recv(&comm, r - dist, tag).await?;
            s.take(&comm, earlier, sends_on);
        }
        dist <<= 1;
    }
    Ok(s.finish())
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

    #[test]
    fn inclusive_sum_scan_all_sizes() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let outcome = Runtime::new(p)
                .run(|comm| comm.scan_inclusive(comm.rank() as u64 + 1, |_| 8, |a, b| a + b));
            let expected: Vec<u64> = (1..=p as u64)
                .scan(0, |s, x| {
                    *s += x;
                    Some(*s)
                })
                .collect();
            assert_eq!(outcome.results, expected, "p={p}");
        }
    }

    #[test]
    fn exclusive_sum_scan_has_identity_at_zero() {
        for p in [1usize, 2, 6, 9] {
            let outcome = Runtime::new(p)
                .run(|comm| comm.scan_exclusive(comm.rank() as u64 + 1, || 0, |_| 8, |a, b| a + b));
            let mut expected = vec![0u64];
            for r in 1..p {
                expected.push(expected[r - 1] + r as u64);
            }
            assert_eq!(outcome.results, expected, "p={p}");
        }
    }

    #[test]
    fn scan_is_rank_order_for_noncommutative() {
        for p in [2usize, 3, 7, 8, 11] {
            let outcome = Runtime::new(p).run(|comm| {
                comm.scan_inclusive(
                    format!("<{}>", comm.rank()),
                    |s: &String| s.len(),
                    |a, b| a + &b,
                )
            });
            for (r, got) in outcome.results.iter().enumerate() {
                let expected: String = (0..=r).map(|i| format!("<{i}>")).collect();
                assert_eq!(got, &expected, "p={p} r={r}");
            }
        }
    }

    #[test]
    fn exclusive_scan_of_noncommutative() {
        let outcome = Runtime::new(6).run(|comm| {
            comm.scan_exclusive(
                format!("<{}>", comm.rank()),
                String::new,
                |s: &String| s.len(),
                |a, b| a + &b,
            )
        });
        for (r, got) in outcome.results.iter().enumerate() {
            let expected: String = (0..r).map(|i| format!("<{i}>")).collect();
            assert_eq!(got, &expected, "r={r}");
        }
    }

    #[test]
    fn scan_both_agree_with_separate_calls() {
        let outcome = Runtime::new(5).run(|comm| {
            let (ex, inc) = comm.scan_both(comm.rank() as u64 + 1, |_| 8, |a, b| a + b);
            (ex.unwrap_or(0), inc)
        });
        for (r, (ex, inc)) in outcome.results.iter().enumerate() {
            assert_eq!(*inc, *ex + r as u64 + 1);
        }
    }

    #[test]
    fn scan_uses_logarithmic_rounds() {
        let outcome = Runtime::new(16).run(|comm| {
            comm.scan_inclusive(1u64, |_| 8, |a, b| a + b);
        });
        // Shifted recursive doubling with p=16: 4 rounds, each rank sends
        // at most one message per round → at most 4·16 messages (fewer at
        // the edges), far below the p² of a naive approach.
        assert!(
            outcome.stats.messages <= 64,
            "messages={}",
            outcome.stats.messages
        );
        assert!(outcome.stats.messages >= 15);
    }

    #[test]
    fn clone_elision_modes_agree_and_keep_traffic_identical() {
        // All three entry modes (inclusive-only, exclusive-only, both)
        // run the identical message schedule; the clone/combine elision
        // is local only.
        for p in [2usize, 3, 8, 13] {
            let both = Runtime::new(p).run(|comm| {
                comm.scan_both(
                    format!("<{}>", comm.rank()),
                    |s: &String| s.len(),
                    |a, b| a + &b,
                )
            });
            let inc_only = Runtime::new(p).run(|comm| {
                comm.scan_inclusive(
                    format!("<{}>", comm.rank()),
                    |s: &String| s.len(),
                    |a, b| a + &b,
                )
            });
            let exc_only = Runtime::new(p).run(|comm| {
                comm.scan_exclusive(
                    format!("<{}>", comm.rank()),
                    String::new,
                    |s: &String| s.len(),
                    |a, b| a + &b,
                )
            });
            for (r, (ex, inc)) in both.results.iter().enumerate() {
                assert_eq!(inc, &inc_only.results[r], "p={p} r={r}");
                assert_eq!(
                    ex.as_deref().unwrap_or(""),
                    exc_only.results[r],
                    "p={p} r={r}"
                );
            }
            assert_eq!(both.stats.messages, inc_only.stats.messages, "p={p}");
            assert_eq!(both.stats.messages, exc_only.stats.messages, "p={p}");
            assert_eq!(both.stats.bytes, inc_only.stats.bytes, "p={p}");
            assert_eq!(both.stats.bytes, exc_only.stats.bytes, "p={p}");
        }
    }
}
