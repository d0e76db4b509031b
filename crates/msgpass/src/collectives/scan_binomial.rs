//! Work-efficient binomial scan (Blelloch-style up-sweep/down-sweep).
//!
//! The schedule is the classic two-phase parallel prefix over a binomial
//! tree of rank ranges, generalized to any (also non-power-of-two) rank
//! count by always splitting a range `[lo, hi)` at `lo +` the largest
//! power of two below its length:
//!
//! * **Up-sweep** (post-order): for each tree node `[lo, mid, hi)`, rank
//!   `mid−1` — which by then holds the total of `[lo, mid)` — sends it to
//!   rank `hi−1`, which saves it and folds it into its own running total.
//!   After the sweep, rank `hi−1` of every node holds the total of
//!   `[lo, hi)`; the root rank `p−1` holds the grand total.
//! * **Down-sweep** (pre-order): each node's `hi−1` holds the exclusive
//!   prefix of `lo`; it forwards that prefix to `mid−1` (the left half's
//!   top) and folds the saved left-half total in, leaving itself the
//!   exclusive prefix of `mid` for its deeper right-half nodes. Nodes
//!   with `lo == 0` skip the send: the prefix of rank 0 is statically
//!   empty, and both sides of the pair know it from the shared schedule.
//!
//! Every rank receives its exclusive prefix exactly once (ranks on the
//! leftmost spine receive nothing and keep the empty prefix), and the
//! inclusive result is one extra combine with the rank's own up-sweep
//! total — so the whole scan costs `2⌈log₂p⌉` rounds but only `O(p)`
//! messages and combines, against Hillis–Steele's `Θ(p·log p)`. Combines
//! always run `(earlier, later)` in rank order, so non-commutative
//! operators are safe.

use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;
use crate::request::Schedule;

/// The binomial recursion over `[0, p)`, in post-order (children before
/// their parent). A node is recorded as `(lo, mid, hi)` with
/// `mid = lo + 2^⌊log₂(hi−lo−1)⌋·…` — the largest power of two strictly
/// below the range length — so both halves are themselves binomial
/// ranges. Every rank derives the identical schedule from `p` alone.
fn binomial_nodes(p: usize) -> Vec<(usize, usize, usize)> {
    fn rec(lo: usize, hi: usize, out: &mut Vec<(usize, usize, usize)>) {
        let m = hi - lo;
        if m < 2 {
            return;
        }
        let mid = lo + m.next_power_of_two() / 2;
        rec(lo, mid, out);
        rec(mid, hi, out);
        out.push((lo, mid, hi));
    }
    let mut nodes = Vec::new();
    rec(0, p, &mut nodes);
    nodes
}

enum SweepPhase {
    /// Walking `nodes[idx..]` forward; suspension point is the up-sweep
    /// receive at nodes where this rank is `hi−1`.
    Up,
    /// Walking `nodes[..idx]` backward (pre-order); suspension point is
    /// the prefix receive at nodes where this rank is `mid−1`.
    Down,
    Done,
}

/// Resumable binomial scan. The node walk is the program counter: `idx`
/// advances forward through the post-order list during the up-sweep,
/// then backward during the down-sweep; sends are issued eagerly and
/// only the two receives suspend. Output is `(exclusive, inclusive)`
/// with the exclusive half `None` on the leftmost spine (rank 0 et al.).
pub(crate) struct ScanBinomialSchedule<T, B, F> {
    comm: Comm,
    tag_up: Key,
    tag_down: Key,
    bytes_of: B,
    combine: F,
    nodes: Vec<(usize, usize, usize)>,
    idx: usize,
    phase: SweepPhase,
    /// Up-sweep running total, consumed by the single prefix-receive (or
    /// returned as the inclusive result on the spine).
    acc: Option<T>,
    /// Left-half totals received during the up-sweep, replayed LIFO by
    /// the down-sweep.
    saved: Vec<T>,
    prefix: Option<T>,
    inclusive: Option<T>,
}

impl<T, B, F> ScanBinomialSchedule<T, B, F>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    pub(crate) fn new(comm: Comm, value: T, seq: u64, bytes_of: B, combine: F) -> Self {
        let p = comm.size();
        let nodes = if p < 2 { Vec::new() } else { binomial_nodes(p) };
        let phase = if nodes.is_empty() {
            SweepPhase::Done
        } else {
            SweepPhase::Up
        };
        ScanBinomialSchedule {
            comm,
            tag_up: TagBase::ScanUp.key(seq),
            tag_down: TagBase::ScanDown.key(seq),
            bytes_of,
            combine,
            nodes,
            idx: 0,
            phase,
            acc: Some(value),
            saved: Vec::new(),
            prefix: None,
            inclusive: None,
        }
    }
}

impl<T, B, F> Schedule for ScanBinomialSchedule<T, B, F>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    type Output = (Option<T>, T);

    fn poll(&mut self) -> Result<Option<(Option<T>, T)>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        let r = self.comm.rank();
        loop {
            match self.phase {
                SweepPhase::Up => {
                    while self.idx < self.nodes.len() {
                        let (_, mid, hi) = self.nodes[self.idx];
                        if r + 1 == mid {
                            let a = self
                                .acc
                                .as_ref()
                                .expect("up-sweep total is live until the down-sweep");
                            let bytes = (self.bytes_of)(a);
                            self.comm.send_key(hi - 1, self.tag_up, a.clone(), bytes);
                        } else if r + 1 == hi {
                            let Some(left) =
                                self.comm.try_recv_schedule::<T>(mid - 1, self.tag_up)?
                            else {
                                return Ok(None);
                            };
                            self.saved.push(left.clone());
                            let acc = self.acc.take().expect("up-sweep total present");
                            self.acc = Some((self.combine)(left, acc));
                        }
                        self.idx += 1;
                    }
                    self.phase = SweepPhase::Down;
                }
                SweepPhase::Down => {
                    while self.idx > 0 {
                        let (lo, mid, hi) = self.nodes[self.idx - 1];
                        if r + 1 == hi {
                            if lo > 0 {
                                let pfx =
                                    self.prefix.as_ref().expect("non-spine prefix is non-empty");
                                let bytes = (self.bytes_of)(pfx);
                                self.comm
                                    .send_key(mid - 1, self.tag_down, pfx.clone(), bytes);
                            }
                            let left = self
                                .saved
                                .pop()
                                .expect("one saved left total per up-sweep receive");
                            self.prefix = Some(match self.prefix.take() {
                                None => left,
                                Some(pf) => (self.combine)(pf, left),
                            });
                        } else if r + 1 == mid && lo > 0 {
                            let Some(pfx) =
                                self.comm.try_recv_schedule::<T>(hi - 1, self.tag_down)?
                            else {
                                return Ok(None);
                            };
                            let acc = self
                                .acc
                                .take()
                                .expect("each rank receives its prefix at most once");
                            self.inclusive = Some((self.combine)(pfx.clone(), acc));
                            self.prefix = Some(pfx);
                        }
                        self.idx -= 1;
                    }
                    self.phase = SweepPhase::Done;
                }
                SweepPhase::Done => {
                    // Ranks that never received a prefix (the leftmost
                    // spine and the root) have their subtree anchored at
                    // rank 0, so the up-sweep total already *is* their
                    // inclusive result.
                    let inclusive = self
                        .inclusive
                        .take()
                        .unwrap_or_else(|| self.acc.take().expect("unconsumed up-sweep total"));
                    return Ok(Some((self.prefix.take(), inclusive)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::binomial_nodes;
    use crate::collectives::tree::whole;
    use crate::cost::ScanAlgorithm::Binomial;
    use crate::runtime::Runtime;

    #[test]
    fn nodes_cover_all_ranges_in_post_order() {
        assert_eq!(binomial_nodes(1), vec![]);
        assert_eq!(binomial_nodes(2), vec![(0, 1, 2)]);
        assert_eq!(
            binomial_nodes(6),
            vec![(0, 1, 2), (2, 3, 4), (0, 2, 4), (4, 5, 6), (0, 4, 6)]
        );
        for p in 1..=33usize {
            let nodes = binomial_nodes(p);
            // p−1 internal nodes, children strictly before parents.
            assert_eq!(nodes.len(), p.saturating_sub(1), "p={p}");
            for (i, &(lo, mid, hi)) in nodes.iter().enumerate() {
                assert!(lo < mid && mid < hi && hi <= p, "p={p} node={i}");
                let sub = mid - lo;
                assert!(sub.is_power_of_two() && sub < hi - lo && 2 * sub >= hi - lo);
                for &(clo, _, chi) in &nodes[i + 1..] {
                    assert!(
                        !(clo >= lo && chi <= hi && (clo, chi) != (lo, hi)),
                        "p={p}: child ({clo},{chi}) after parent ({lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn binomial_scan_matches_oracle_for_all_sizes() {
        for p in 1..=16usize {
            let outcome = Runtime::new(p).run(|comm| {
                comm.scan_both_by(
                    (Binomial, 1),
                    comm.rank() as u64 + 1,
                    whole(),
                    |_| 8,
                    |a, b| a + b,
                )
            });
            for (r, (ex, inc)) in outcome.results.iter().enumerate() {
                let below: u64 = (1..=r as u64).sum();
                assert_eq!(ex.unwrap_or(0), below, "p={p} r={r}");
                assert_eq!(*inc, below + r as u64 + 1, "p={p} r={r}");
            }
        }
    }

    #[test]
    fn binomial_scan_is_rank_ordered_for_noncommutative() {
        for p in [2usize, 3, 6, 7, 8, 13] {
            let outcome = Runtime::new(p).run(|comm| {
                let mine = format!("<{}>", comm.rank());
                comm.scan_both_by(
                    (Binomial, 1),
                    mine,
                    whole(),
                    |s: &String| s.len(),
                    |a, b| a + &b,
                )
            });
            for (r, (ex, inc)) in outcome.results.iter().enumerate() {
                let expected_ex: String = (0..r).map(|i| format!("<{i}>")).collect();
                let expected_inc: String = (0..=r).map(|i| format!("<{i}>")).collect();
                assert_eq!(ex.clone().unwrap_or_default(), expected_ex, "p={p} r={r}");
                assert_eq!(inc, &expected_inc, "p={p} r={r}");
            }
        }
    }

    #[test]
    fn binomial_scan_uses_linear_messages() {
        // 2(p−1) − ⌈log₂p⌉ messages: p−1 up, p−1 down minus the spine's
        // skipped empty-prefix sends. At p=16 that is 26, well below the
        // 49 of recursive doubling.
        let outcome = Runtime::new(16).run(|comm| {
            comm.scan_both_by((Binomial, 1), 1u64, whole(), |_| 8, |a, b| a + b);
        });
        assert_eq!(
            outcome.stats.messages, 26,
            "messages={}",
            outcome.stats.messages
        );
    }
}
