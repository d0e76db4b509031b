//! Pipelined chain scan over state segments.
//!
//! A plain chain scan (rank `r` waits for `r−1`'s prefix, combines,
//! forwards) serializes the whole state across `p−1` hops. Splitting the
//! state into `S` segments turns the chain into a pipeline: segment `j`
//! moves rank-to-rank one hop behind segment `j−1`, so the schedule
//! finishes in `p+S−2` stages of one `n/S`-byte segment each instead of
//! `p−1` hops of `n` bytes — chain latency overlaps with bandwidth.
//! Aggregate traffic is `(p−1)·n` bytes, even below the binomial's
//! `≈2p·n`, which is why the selector prefers it for large states
//! whenever the state can be split at all.
//!
//! Correctness needs exactly the `SplittableState` laws from `gv-core`:
//! each segment is scanned independently in rank order (so
//! non-commutative operators are safe — there is no cross-segment
//! combining), and reassembling per-segment prefixes into whole-state
//! prefixes is the distributivity law. Segment boundaries are chosen by
//! [`ScanAlgorithm::chain_segments`](crate::cost::ScanAlgorithm::chain_segments)
//! from `(cost model, p, bytes)` alone, so every rank derives the same
//! schedule.

use super::tree::split_into;
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Tag;
use crate::request::Schedule;

/// Resumable pipelined-chain scan. The segment iterator is the program
/// counter: each segment's step is recv-prefix (the only suspension
/// point, skipped on rank 0), combine, forward, stash; the scan
/// completes when every segment has flowed through. Segments of one
/// `(src, tag)` pair arrive in send order (non-overtaking), so a single
/// tag keeps them matched positionally.
///
/// `need_exclusive = false` skips the per-segment prefix clone (the
/// received prefix is moved straight into the combine) — it changes only
/// local copying, never messages, bytes, or combine counts.
pub(crate) struct ScanChainSchedule<T, B, F, U> {
    comm: Comm,
    tag: Tag,
    bytes_of: B,
    combine: F,
    unsplit: U,
    need_exclusive: bool,
    /// Segments not yet scanned, in rank-position order. The head is
    /// consumed only after its prefix has arrived, so a suspended poll
    /// leaves the iterator untouched.
    remaining: std::vec::IntoIter<T>,
    incl: Vec<T>,
    excl: Vec<T>,
}

impl<T, B, F, U> ScanChainSchedule<T, B, F, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
    U: Fn(Vec<T>) -> T,
{
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        comm: Comm,
        value: T,
        segments: usize,
        split: impl FnOnce(T, usize) -> Vec<T>,
        salt: Tag,
        bytes_of: B,
        combine: F,
        unsplit: U,
        need_exclusive: bool,
    ) -> Self {
        let s = segments.max(1);
        let segs = split_into(value, s, split);
        ScanChainSchedule {
            comm,
            tag: TagBase::ScanChain.tag(salt),
            bytes_of,
            combine,
            unsplit,
            need_exclusive,
            remaining: segs.into_iter(),
            incl: Vec::with_capacity(s),
            excl: Vec::with_capacity(if need_exclusive { s } else { 0 }),
        }
    }
}

impl<T, B, F, U> Schedule for ScanChainSchedule<T, B, F, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
    U: Fn(Vec<T>) -> T,
{
    type Output = (Option<T>, T);

    fn poll(&mut self) -> Result<Option<(Option<T>, T)>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        let p = self.comm.size();
        let r = self.comm.rank();
        while self.remaining.len() > 0 {
            // Per-segment chain step; the prefix receive suspends
            // *before* the head segment is consumed.
            let inc = if r == 0 {
                self.remaining.next().unwrap()
            } else {
                let Some(pfx) = self.comm.try_recv_schedule::<T>(r - 1, self.tag)? else {
                    return Ok(None);
                };
                let seg = self.remaining.next().unwrap();
                if self.need_exclusive {
                    let inc = (self.combine)(pfx.clone(), seg);
                    self.excl.push(pfx);
                    inc
                } else {
                    (self.combine)(pfx, seg)
                }
            };
            if r + 1 < p {
                let bytes = (self.bytes_of)(&inc);
                self.comm.send_with_bytes(r + 1, self.tag, inc.clone(), bytes);
            }
            self.incl.push(inc);
        }
        let exclusive = (self.need_exclusive && r > 0)
            .then(|| (self.unsplit)(std::mem::take(&mut self.excl)));
        let inclusive = (self.unsplit)(std::mem::take(&mut self.incl));
        Ok(Some((exclusive, inclusive)))
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::Comm;
    use crate::cost::ScanAlgorithm;
    use crate::runtime::Runtime;
    use gv_core::split::{split_vec_segments, unsplit_vec_segments};

    fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }

    /// Both scans of `state` by the chain at `segments` segments.
    fn chain(comm: &Comm, state: Vec<u64>, segments: usize) -> (Option<Vec<u64>>, Vec<u64>) {
        comm.scan_both_by(
            (ScanAlgorithm::PipelinedChain, segments),
            state,
            (split_vec_segments, unsplit_vec_segments),
            |v: &Vec<u64>| v.len() * 8,
            add,
        )
    }

    #[test]
    fn chain_scan_matches_oracle_for_all_sizes_and_segment_counts() {
        for p in 1..=9usize {
            for segments in [1usize, 2, 3, 7] {
                let outcome = Runtime::new(p)
                    .run(move |comm| chain(comm, vec![comm.rank() as u64 + 1; 12], segments));
                for (r, (ex, inc)) in outcome.results.iter().enumerate() {
                    let below: u64 = (1..=r as u64).sum();
                    if r == 0 {
                        assert!(ex.is_none(), "p={p} segments={segments}");
                    } else {
                        assert_eq!(ex.as_ref().unwrap(), &vec![below; 12], "p={p} s={segments}");
                    }
                    assert_eq!(inc, &vec![below + r as u64 + 1; 12], "p={p} s={segments}");
                }
            }
        }
    }

    #[test]
    fn chain_scan_message_count_is_hops_times_segments() {
        let outcome = Runtime::new(8).run(|comm| {
            chain(comm, vec![comm.rank() as u64; 16], 4);
        });
        // (p−1) hops × S segments.
        assert_eq!(outcome.stats.messages, 7 * 4);
    }

    #[test]
    fn chain_scan_handles_more_segments_than_elements() {
        // Empty segments must flow through split/combine/unsplit intact.
        let outcome = Runtime::new(4).run(|comm| chain(comm, vec![comm.rank() as u64 + 1; 2], 5));
        for (r, (_, inc)) in outcome.results.iter().enumerate() {
            let below: u64 = (1..=r as u64).sum();
            assert_eq!(inc, &vec![below + r as u64 + 1; 2], "r={r}");
        }
    }
}
