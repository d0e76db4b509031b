//! The k-ary rooted reduce behind the TXT-COMM ablation.
//!
//! The combine closure always receives `(earlier, later)` in rank (set)
//! order when the operator is declared non-commutative. For commutative
//! operators the k-ary schedule combines partial results in availability
//! order — the paper's §1 observation that "reductions of commutative
//! operators can immediately combine whichever partial results are
//! available whereas reductions on non-commutative operators must stick to
//! a predefined order", which is also why the commutative/non-commutative
//! distinction only matters when the branching factor exceeds two.
//!
//! The binomial (branching = 2) reduce is the resumable tree schedule in
//! `tree.rs`. The k-ary trees (branching > 2) keep a blocking
//! implementation: their availability-order combining uses deferred-clock
//! receives that have no incremental equivalent, and they are an ablation
//! knob, not a selector candidate.

use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::Source;
use crate::message::Tag;
use crate::stats::CallKind;

/// Splits `lo..hi` into at most `parts` balanced contiguous blocks.
fn split_blocks(lo: usize, hi: usize, parts: usize) -> Vec<(usize, usize)> {
    let n = hi - lo;
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = lo;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

impl Comm {
    /// Reduce with an explicit branching factor and commutativity flag —
    /// the knob behind the TXT-COMM ablation. `branching == 2` uses the
    /// binomial schedule; larger values use contiguous-block k-ary trees
    /// where commutative operators combine children in availability order
    /// and non-commutative ones in rank order.
    pub fn reduce_with_branching<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        commutative: bool,
        branching: usize,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        assert!(branching >= 2, "reduce needs a branching factor >= 2");
        if branching == 2 {
            return self.reduce(root, value, bytes_of, combine);
        }
        self.counters().record_call(CallKind::Reduce);
        let salt = self.next_collective_salt();
        let _guard = self.enter_collective();
        self.reduce_kary_rooted(root, value, commutative, branching, salt, bytes_of, combine)
    }

    /// The k-ary (branching > 2) rooted reduction, blocking: tree to rank
    /// 0, then ship to `root`.
    #[allow(clippy::too_many_arguments)]
    fn reduce_kary_rooted<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        commutative: bool,
        branching: usize,
        salt: Tag,
        bytes_of: impl Fn(&T) -> usize,
        mut combine: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        assert!(root < self.size(), "reduce root {root} out of range");
        let tag = TagBase::Reduce.tag(salt);
        let at_zero = self.reduce_kary_range(
            0,
            self.size(),
            branching,
            commutative,
            tag,
            value,
            &bytes_of,
            &mut combine,
        );
        if root == 0 {
            return at_zero;
        }
        if self.rank() == 0 {
            let result = at_zero.expect("rank 0 holds the reduction result");
            let bytes = bytes_of(&result);
            self.send_with_bytes(root, tag, result, bytes);
            None
        } else if self.rank() == root {
            Some(self.recv(0, tag))
        } else {
            None
        }
    }

    /// Contiguous-block k-ary reduction of the rank range `lo..hi` to its
    /// leader `lo`. Recursion depth ⌈log_b p⌉.
    #[allow(clippy::too_many_arguments)]
    fn reduce_kary_range<T: Send + 'static>(
        &self,
        lo: usize,
        hi: usize,
        branching: usize,
        commutative: bool,
        tag: Tag,
        value: T,
        bytes_of: &impl Fn(&T) -> usize,
        combine: &mut impl FnMut(T, T) -> T,
    ) -> Option<T> {
        debug_assert!(self.rank() >= lo && self.rank() < hi);
        if hi - lo == 1 {
            return Some(value);
        }
        let blocks = split_blocks(lo, hi, branching);
        let my_block = blocks
            .iter()
            .position(|&(a, z)| self.rank() >= a && self.rank() < z)
            .expect("rank must fall in one block");
        let (block_lo, block_hi) = blocks[my_block];
        let sub = self.reduce_kary_range(
            block_lo, block_hi, branching, commutative, tag, value, bytes_of, combine,
        )?;

        if block_lo != lo {
            // Block leader (but not range leader): hand the block's
            // partial to the range leader.
            let bytes = bytes_of(&sub);
            self.send_with_bytes(lo, tag, sub, bytes);
            return None;
        }

        // Range leader: collect the other block leaders' partials. All
        // arrivals are fetched with deferred clock accounting so the two
        // combining schedules can be modeled faithfully.
        let mut arrivals: Vec<(f64, usize, T)> = blocks[1..]
            .iter()
            .enumerate()
            .map(|(i, &(child_lo, _))| {
                let (v, avail) = self.recv_deferred::<T>(Source::Rank(child_lo), tag);
                (avail, i, v)
            })
            .collect();
        if commutative {
            // Combine whichever partial is available first (paper §1).
            arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        // Otherwise combine in block (rank) order, idling until each
        // in-order partial is available.
        let mut acc = sub;
        for (avail, _, v) in arrivals {
            self.bump_clock_to(avail);
            acc = combine(acc, v);
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

    #[test]
    fn reduce_preserves_rank_order_for_noncommutative() {
        for p in [2usize, 3, 7, 8] {
            for branching in [2usize, 3, 4, 8] {
                let outcome = Runtime::new(p).run(move |comm| {
                    comm.reduce_with_branching(
                        0,
                        format!("<{}>", comm.rank()),
                        false,
                        branching,
                        |s: &String| s.len(),
                        |a, b| a + &b,
                    )
                });
                let expected: String = (0..p).map(|r| format!("<{r}>")).collect();
                assert_eq!(
                    outcome.results[0].as_deref(),
                    Some(expected.as_str()),
                    "p={p} b={branching}"
                );
            }
        }
    }

    #[test]
    fn kary_commutative_matches_value() {
        for p in [4usize, 9, 16] {
            for branching in [3usize, 4, 16] {
                let outcome = Runtime::new(p).run(move |comm| {
                    comm.reduce_with_branching(
                        0,
                        comm.rank() as u64 + 1,
                        true,
                        branching,
                        |_| 8,
                        |a, b| a + b,
                    )
                });
                assert_eq!(outcome.results[0], Some((p * (p + 1) / 2) as u64));
            }
        }
    }

    #[test]
    fn allreduce_delivers_everywhere() {
        let outcome = Runtime::new(7).run(|comm| {
            comm.allreduce(comm.rank() as i64, true, |_| 8, |a, b| a.max(b))
        });
        assert_eq!(outcome.results, vec![6; 7]);
    }

    #[test]
    fn commutative_kary_is_no_slower_than_noncommutative() {
        // With staggered rank start times, availability-order combining
        // finishes no later than rank-order combining.
        let time = |commutative: bool| {
            let outcome = Runtime::new(16).run(move |comm| {
                // Rank 1's subtree is slow: everyone must wait for it in
                // rank order; commutative combining overlaps the wait.
                if comm.rank() == 1 {
                    comm.advance(200_000);
                }
                comm.reduce_with_branching(
                    0,
                    1u64,
                    commutative,
                    8,
                    |_| 1 << 16, // large states: combining cost visible
                    |a, b| a + b,
                );
                comm.now()
            });
            outcome.modeled_seconds
        };
        let t_comm = time(true);
        let t_noncomm = time(false);
        assert!(
            t_comm <= t_noncomm + 1e-12,
            "commutative {t_comm} vs non-commutative {t_noncomm}"
        );
    }
}
