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
//! This is the latency-optimal schedule and the selector's small-state
//! default; the selector-routed entry points
//! ([`scan_inclusive`](Comm::scan_inclusive) and friends, in
//! `collectives/select.rs`) may instead pick the work-efficient binomial
//! sweep (`scan_binomial.rs`) or, for splittable states, the pipelined
//! chain (`scan_chain.rs`). All three are resumable schedules.

use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Tag;
use crate::request::Schedule;

/// Resumable shifted recursive-doubling scan. `need_exclusive` /
/// `need_inclusive` say which results the caller will consume; they gate
/// only local clones and combines — the message schedule (count, bytes,
/// order) is identical in every mode, so virtual clocks and traffic
/// accounting cannot depend on the mode. Output is
/// `(exclusive, inclusive)` with the unrequested half `None` (and the
/// exclusive half always `None` on rank 0).
pub(crate) struct ScanRdSchedule<T, B, F> {
    comm: Comm,
    tag: Tag,
    bytes_of: B,
    combine: F,
    need_exclusive: bool,
    need_inclusive: bool,
    inclusive: Option<T>,
    exclusive: Option<T>,
    dist: usize,
    /// This round's send already went out (sends lead the round's
    /// receive, and must not repeat when the receive suspends).
    sent: bool,
}

impl<T, B, F> ScanRdSchedule<T, B, F>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    pub(crate) fn new(
        comm: Comm,
        value: T,
        salt: Tag,
        bytes_of: B,
        combine: F,
        need_exclusive: bool,
        need_inclusive: bool,
    ) -> Self {
        debug_assert!(need_exclusive || need_inclusive);
        ScanRdSchedule {
            comm,
            tag: TagBase::Scan.tag(salt),
            bytes_of,
            combine,
            need_exclusive,
            need_inclusive,
            inclusive: Some(value),
            exclusive: None,
            dist: 1,
            sent: false,
        }
    }
}

impl<T, B, F> Schedule for ScanRdSchedule<T, B, F>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    type Output = (Option<T>, Option<T>);

    fn poll(&mut self) -> Result<Option<(Option<T>, Option<T>)>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        let p = self.comm.size();
        let r = self.comm.rank();
        while self.dist < p {
            let dist = self.dist;
            if !self.sent {
                if r + dist < p {
                    let bytes = (self.bytes_of)(
                        self.inclusive.as_ref().expect("partial live while sends remain"),
                    );
                    // The partial is dead after this send iff the caller
                    // does not want the inclusive result, this rank
                    // receives no more (r < dist), and this is its last
                    // send (r + 2d ≥ p): move it onto the wire instead of
                    // cloning.
                    let payload = if !self.need_inclusive && r < dist && r + 2 * dist >= p {
                        self.inclusive.take().unwrap()
                    } else {
                        self.inclusive.as_ref().unwrap().clone()
                    };
                    self.comm.send_with_bytes(r + dist, self.tag, payload, bytes);
                }
                self.sent = true;
            }
            if r >= dist {
                let Some(earlier) = self.comm.try_recv_schedule::<T>(r - dist, self.tag)?
                else {
                    return Ok(None);
                };
                // The inclusive partial stays live only while it has a
                // consumer left: a later send (r + 2d < p) or the caller.
                // (`r + 2d < p` also covers every later receive's
                // combine.) Once dead, `earlier` moves into the exclusive
                // accumulator instead of being cloned for both halves.
                let inclusive_live = self.need_inclusive || r + 2 * dist < p;
                match (self.need_exclusive, inclusive_live) {
                    (true, true) => {
                        self.exclusive = Some(match self.exclusive.take() {
                            None => earlier.clone(),
                            Some(e) => (self.combine)(earlier.clone(), e),
                        });
                        self.inclusive =
                            Some((self.combine)(earlier, self.inclusive.take().unwrap()));
                    }
                    (true, false) => {
                        self.exclusive = Some(match self.exclusive.take() {
                            None => earlier,
                            Some(e) => (self.combine)(earlier, e),
                        });
                        self.inclusive = None;
                    }
                    (false, true) => {
                        self.inclusive =
                            Some((self.combine)(earlier, self.inclusive.take().unwrap()));
                    }
                    // Unreachable given the constructor's debug_assert;
                    // drop `earlier`.
                    (false, false) => {}
                }
            }
            self.dist <<= 1;
            self.sent = false;
        }
        Ok(Some((self.exclusive.take(), self.inclusive.take())))
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::tree::whole;
    use crate::comm::Comm;
    use crate::cost::ScanAlgorithm;
    use crate::runtime::Runtime;

    /// Both scans of a `u64` sum forced onto `algo` at one segment.
    fn sum_both(comm: &Comm, algo: ScanAlgorithm, value: u64) -> (Option<u64>, u64) {
        comm.scan_both_by((algo, 1), value, whole(), |_| 8, |a, b| a + b)
    }

    #[test]
    fn inclusive_sum_scan_all_sizes() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let outcome = Runtime::new(p).run(|comm| {
                comm.scan_inclusive(comm.rank() as u64 + 1, |_| 8, |a, b| a + b)
            });
            let expected: Vec<u64> = (1..=p as u64).scan(0, |s, x| {
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
            let outcome = Runtime::new(p).run(|comm| {
                comm.scan_exclusive(comm.rank() as u64 + 1, || 0, |_| 8, |a, b| a + b)
            });
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
    fn forced_recursive_doubling_matches_selector_result() {
        for p in [1usize, 2, 5, 8] {
            let outcome = Runtime::new(p).run(|comm| {
                let (ex, inc) = sum_both(
                    comm,
                    ScanAlgorithm::RecursiveDoubling,
                    comm.rank() as u64 + 1,
                );
                let (ex2, inc2) = comm.scan_both(comm.rank() as u64 + 1, |_| 8, |a, b| a + b);
                (ex == ex2, inc == inc2)
            });
            assert!(outcome.results.iter().all(|&(a, b)| a && b), "p={p}");
        }
    }

    #[test]
    fn linear_scan_matches_prefix_scan() {
        for p in [1usize, 2, 5, 9] {
            let outcome = Runtime::new(p).run(|comm| {
                let fast = comm.scan_inclusive(comm.rank() as u64 + 1, |_| 8, |a, b| a + b);
                let slow = sum_both(comm, ScanAlgorithm::PipelinedChain, comm.rank() as u64 + 1).1;
                (fast, slow)
            });
            for (fast, slow) in outcome.results {
                assert_eq!(fast, slow, "p={p}");
            }
        }
    }

    #[test]
    fn linear_scan_preserves_order_for_noncommutative() {
        let outcome = Runtime::new(5).run(|comm| {
            let plan = (ScanAlgorithm::PipelinedChain, 1);
            let mine = format!("<{}>", comm.rank());
            comm.scan_both_by(plan, mine, whole(), |s: &String| s.len(), |a, b| a + &b)
                .1
        });
        for (r, got) in outcome.results.iter().enumerate() {
            let expected: String = (0..=r).map(|i| format!("<{i}>")).collect();
            assert_eq!(got, &expected);
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
        assert!(outcome.stats.messages <= 64, "messages={}", outcome.stats.messages);
        assert!(outcome.stats.messages >= 15);
    }

    #[test]
    fn clone_elision_modes_agree_and_keep_traffic_identical() {
        // All three entry modes (inclusive-only, exclusive-only, both)
        // run the identical message schedule; the clone/combine elision
        // is local only.
        for p in [2usize, 3, 8, 13] {
            let both = Runtime::new(p).run(|comm| {
                comm.scan_both(format!("<{}>", comm.rank()), |s: &String| s.len(), |a, b| a + &b)
            });
            let inc_only = Runtime::new(p).run(|comm| {
                comm.scan_inclusive(format!("<{}>", comm.rank()), |s: &String| s.len(), |a, b| {
                    a + &b
                })
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
