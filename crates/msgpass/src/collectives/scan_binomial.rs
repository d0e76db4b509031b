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
use crate::request::recv;

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

/// Binomial scan: the node walk is the program — forward through the
/// post-order list for the up-sweep, backward for the down-sweep; sends
/// are issued eagerly and only the two receives suspend. Output is
/// `(exclusive, inclusive)` with the exclusive half `None` on the
/// leftmost spine (rank 0 et al.).
pub(crate) async fn scan_binomial<T: Clone + Send + 'static>(
    comm: Comm,
    value: T,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<(Option<T>, T), ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    let (tag_up, tag_down) = (TagBase::ScanUp.key(seq), TagBase::ScanDown.key(seq));
    let send = |dst: usize, tag, value: &T| {
        let bytes = bytes_of(value);
        comm.send_key(dst, tag, value.clone(), bytes);
    };
    let nodes = if p < 2 { Vec::new() } else { binomial_nodes(p) };
    // The up-sweep running total; ranks that never receive a prefix (the
    // leftmost spine and the root) have their subtree anchored at rank 0,
    // so it already *is* their inclusive result.
    let mut acc = value;
    // Left-half totals received during the up-sweep, replayed LIFO by
    // the down-sweep.
    let mut saved = Vec::new();
    for &(_, mid, hi) in &nodes {
        if r + 1 == mid {
            send(hi - 1, tag_up, &acc);
        } else if r + 1 == hi {
            let left = recv::<T>(&comm, mid - 1, tag_up).await?;
            saved.push(left.clone());
            acc = combine(left, acc);
        }
    }
    let mut prefix: Option<T> = None;
    for &(lo, mid, hi) in nodes.iter().rev() {
        if r + 1 == hi {
            if lo > 0 {
                send(
                    mid - 1,
                    tag_down,
                    prefix.as_ref().expect("non-spine prefix is non-empty"),
                );
            }
            let left = saved
                .pop()
                .expect("one saved left total per up-sweep receive");
            prefix = Some(match prefix.take() {
                None => left,
                Some(pf) => combine(pf, left),
            });
        } else if r + 1 == mid && lo > 0 {
            // Each rank receives its prefix at most once.
            let pfx = recv::<T>(&comm, hi - 1, tag_down).await?;
            acc = combine(pfx.clone(), acc);
            prefix = Some(pfx);
        }
    }
    Ok((prefix, acc))
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
