//! The binomial tree: broadcast down, reduce up, and the fused allreduce
//! that does both. It carries whole states: a state crosses each tree
//! edge as one message.
//!
//! Three schedules share two sweeps over the tree rooted at a given rank
//! (the binomial tree of rank 0, rotated by the root):
//!
//! * `up_sweep` reduces the state toward the root. A rank receives its
//!   children's partials in increasing-mask order and combines `(own,
//!   child)` — the child's partial covers exactly the virtual ranks just
//!   above the receiver's, so every combine is a vrank-order association:
//!   rank order at root 0, where non-commutative operators are safe, and
//!   a rotation of it anywhere else.
//! * `down_sweep` relays the state from the root to all ranks, deepest
//!   subtree first.
//!
//! `tree_bcast` is a down-sweep rooted anywhere, `p − 1` messages on a
//! `⌈log₂p⌉`-hop path. `tree_reduce` is an up-sweep to rank 0 — rotating
//! a non-commutative tree would permute the combine order — which then
//! ships the result to a non-zero root: `p − 1` messages, plus one when
//! the root is not rank 0. `tree_allreduce` hands the result that reaches
//! its root straight to the down-sweep: `2(p − 1)` messages on a
//! `2⌈log₂p⌉`-hop path. Every blocking call roots it at rank 0; a
//! commutative request roots it at its call sequence mod p, so
//! consecutive requests spread their combines over the ranks
//! (`select.rs`).
//!
//! Memory discipline: payloads move by value. An arriving partial is
//! combined *into*, and a state forwarded to one peer is sent by move.
//! The fused allreduce is one body, generic over how a state crosses
//! (`Exchange`, `exchange.rs`): by value the down-sweep clones the
//! result once per child, as the broadcast does; a counting state's
//! exchange clones nothing — a rank's children are the same in both
//! sweeps, so it combines each child's partial in place, keeps the
//! child's buffer, and writes the result into it for the way back
//! (`counting.rs`).
//!
//! The sweeps and the fused allreduce, which a request boxes, are plain
//! `fn`s returning an `async move` block, not `async fn`s: an `async fn`
//! keeps its arguments a second time beside the locals they move into
//! (`a_requests_schedule_stays_small` pins the sizes).

use std::future::Future;

use super::exchange::Exchange;
use super::launch::Blocking;
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;
use crate::request::{recv, recv_last};
use crate::stats::CallKind;

/// The `(split, unsplit)` pair of a whole, unsplittable state: its
/// one-segment segmentation. Pass it where an entry point takes a
/// segmentation ([`Comm::allreduce_by`], [`Comm::scan_both_by`]) and the
/// state cannot be split; only a schedule that runs the state whole may
/// then be named.
pub fn whole<T>() -> (impl FnOnce(T, usize) -> Vec<T>, impl Fn(Vec<T>) -> T) {
    fn split<T>(value: T, parts: usize) -> Vec<T> {
        debug_assert_eq!(parts, 1, "a whole state travels as one segment");
        vec![value]
    }
    fn unsplit<T>(mut segments: Vec<T>) -> T {
        segments.pop().expect("a whole state is one segment")
    }
    (split, unsplit)
}

/// This rank's position in the tree rooted at `root`: its virtual rank,
/// and the mask its walk up stops at — the lowest set vrank bit (its
/// parent link), or one past the whole tree at the root. Its children
/// are the vranks `vrank + m` for the masks `m` below that one.
fn position(comm: &Comm, root: usize) -> (usize, usize) {
    let p = comm.size();
    let vrank = (comm.rank() + p - root) % p;
    let mut mask = 1usize;
    while mask < p && vrank & mask == 0 {
        mask <<= 1;
    }
    (vrank, mask)
}

/// One rank's share of the reduce toward `root`: `value` takes in the
/// partials of this rank's tree children (increasing-mask order) and goes
/// on to its parent. The root's result is `Some`, every other rank's
/// `None`. The combines follow vrank order, which is rank order only for
/// `root` 0.
fn up_sweep<'a, T: Send + 'static>(
    comm: &'a Comm,
    root: usize,
    tag: Key,
    value: T,
    bytes_of: &'a impl Fn(&T) -> usize,
    mut combine: impl FnMut(&Comm, T, T) -> T + 'a,
) -> impl Future<Output = Result<Option<T>, ShutdownError>> + 'a {
    let p = comm.size();
    let (vrank, low) = position(comm, root);
    async move {
        let mut acc = value;
        let mut m = 1;
        while m < low && vrank + m < p {
            let later = recv::<T>(comm, (vrank + m + root) % p, tag).await?;
            acc = combine(comm, acc, later);
            m <<= 1;
        }
        if vrank == 0 {
            return Ok(Some(acc));
        }
        let bytes = bytes_of(&acc);
        comm.send_key((vrank - low + root) % p, tag, acc, bytes);
        Ok(None)
    }
}

/// One rank's share of the relay from `root` to everyone: the root holds
/// the state, every other rank receives it from its tree parent; each
/// then sends it to its children, largest subtree first (the child that
/// must relay deepest gets its copy earliest). `copy` makes each child's
/// copy of the state.
fn down_sweep<'a, T: Send + 'static>(
    comm: &'a Comm,
    root: usize,
    tag: Key,
    bytes_of: &'a impl Fn(&T) -> usize,
    held: Option<T>,
    mut copy: impl FnMut(&T) -> T + 'a,
) -> impl Future<Output = Result<T, ShutdownError>> + 'a {
    let p = comm.size();
    let (vrank, mask) = position(comm, root);
    async move {
        let value = match held {
            Some(value) => value,
            // A rank without children relays nothing: its receive is the
            // schedule's last.
            None if mask == 1 || vrank + 1 == p => {
                recv_last::<T>(comm, (vrank + p - mask + root) % p, tag).await?
            }
            None => recv::<T>(comm, (vrank + p - mask + root) % p, tag).await?,
        };
        let mut m = mask >> 1;
        while m > 0 {
            if vrank + m < p {
                let bytes = bytes_of(&value);
                comm.send_key((vrank + m + root) % p, tag, copy(&value), bytes);
            }
            m >>= 1;
        }
        Ok(value)
    }
}

/// Broadcast from `root` (`value` is `Some` there and ignored elsewhere).
pub(crate) async fn tree_bcast<T: Clone + Send + 'static>(
    comm: Comm,
    root: usize,
    value: Option<T>,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
) -> Result<T, ShutdownError> {
    assert!(root < comm.size(), "bcast root {root} out of range");
    let held = (comm.rank() == root).then(|| value.expect("the bcast root must supply the value"));
    let tag = TagBase::Bcast.key(seq);
    down_sweep(&comm, root, tag, &bytes_of, held, T::clone).await
}

/// Reduce to `root`: `Some(result)` there, `None` elsewhere. The
/// up-sweep climbs to rank 0, so the combines keep rank order.
pub(crate) async fn tree_reduce<T: Send + 'static>(
    comm: Comm,
    root: usize,
    value: T,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<Option<T>, ShutdownError> {
    assert!(root < comm.size(), "reduce root {root} out of range");
    let tag = TagBase::Reduce.key(seq);
    let combine = move |_: &Comm, earlier, later| combine(earlier, later);
    match up_sweep(&comm, 0, tag, value, &bytes_of, combine).await? {
        Some(result) if root != 0 => {
            let bytes = bytes_of(&result);
            comm.send_key(root, tag, result, bytes);
            Ok(None)
        }
        None if comm.rank() == root => Ok(Some(recv(&comm, 0, tag).await?)),
        at_zero => Ok(at_zero),
    }
}

/// Fused allreduce on the tree rooted at `root`: up-sweep, the result
/// handed straight to the down-sweep, `x` adopting each child's partial
/// and handing each child its copy of the result. Any root but 0
/// combines in a rotated rank order, which only a commutative operator
/// allows. Not an `async fn`, which would keep its arguments twice (see
/// the module docs).
#[allow(clippy::manual_async_fn)]
pub(crate) fn tree_allreduce<T: Send + 'static, X: Exchange<T>>(
    comm: Comm,
    root: usize,
    value: T,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    mut x: X,
) -> impl Future<Output = Result<T, ShutdownError>> {
    async move {
        let up = TagBase::AllreduceTreeUp.key(seq);
        let adopt = |comm: &Comm, acc, child| x.adopt(comm, acc, child);
        let top = up_sweep(&comm, root, up, value, &bytes_of, adopt).await?;
        let down = TagBase::AllreduceTreeDown.key(seq);
        let hand_down = |result: &T| x.hand_down(result);
        down_sweep(&comm, root, down, &bytes_of, top, hand_down).await
    }
}

impl Comm {
    /// Broadcasts from `root`. The root passes `Some(value)`, every other
    /// rank passes `None`; all ranks return the value.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.bcast_by(root, value, |_| std::mem::size_of::<T>())
    }

    /// Broadcast of a vector, modeling `len · size_of::<T>()` wire bytes.
    pub fn bcast_vec<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
    ) -> Vec<T> {
        self.bcast_by(root, value, vec_bytes)
    }

    /// [`bcast`](Self::bcast) of a state the caller could split, modeling
    /// `bytes_of` wire bytes. The tree carries whole states, so
    /// `wire_bytes`, `split` and `unsplit` are not used; the signature is
    /// kept for the callers written against the segmented tree this
    /// replaced.
    pub fn bcast_splittable<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        _wire_bytes: usize,
        _split: impl FnOnce(T, usize) -> Vec<T>,
        _unsplit: impl FnOnce(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
    ) -> T {
        self.bcast_by(root, value, bytes_of)
    }

    fn bcast_by<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        bytes_of: impl Fn(&T) -> usize,
    ) -> T {
        self.launch::<Blocking, _, _>(CallKind::Bcast, |comm, seq| {
            tree_bcast(comm, root, value, seq, bytes_of)
        })
    }

    /// Reduces one value per rank to `root` along the binomial tree;
    /// `Some(result)` at the root, `None` elsewhere.
    ///
    /// Safe for non-commutative operators: every combine respects rank
    /// order.
    pub fn reduce<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        self.launch::<Blocking, _, _>(CallKind::Reduce, |comm, seq| {
            tree_reduce(comm, root, value, seq, bytes_of, combine)
        })
    }
}

/// Wire bytes of a vector payload: `len · size_of::<T>()`.
#[allow(clippy::ptr_arg)] // passed where Fn(&Vec<T>) -> usize is expected
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.len() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::{vec_bytes as bytes_u64, whole};
    use crate::comm::Comm;
    use crate::cost::AllreduceAlgorithm;
    use crate::runtime::Runtime;

    fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }

    /// The fused tree allreduce rooted at rank 0.
    fn tree_allreduce(comm: &Comm, state: Vec<u64>) -> Vec<u64> {
        let tree = AllreduceAlgorithm::ReduceBroadcast;
        comm.allreduce_by(tree, state, whole(), bytes_u64, add)
    }

    /// Element-wise string concatenation: associative, NOT commutative.
    fn concat(mut a: Vec<String>, b: Vec<String>) -> Vec<String> {
        for (x, y) in a.iter_mut().zip(b) {
            x.push_str(&y);
        }
        a
    }

    #[test]
    fn bcast_reaches_every_rank_from_every_root() {
        for p in [1usize, 2, 3, 6, 9] {
            for root in 0..p {
                let outcome = Runtime::new(p).run(move |comm| {
                    let value = if comm.rank() == root {
                        Some(1234 + root as i64)
                    } else {
                        None
                    };
                    comm.bcast(root, value)
                });
                assert_eq!(outcome.results, vec![1234 + root as i64; p]);
            }
        }
    }

    #[test]
    fn bcast_vec_carries_payload() {
        let outcome = Runtime::new(5).run(|comm| {
            let value = if comm.rank() == 2 {
                Some((0..100u32).collect::<Vec<_>>())
            } else {
                None
            };
            comm.bcast_vec(2, value)
        });
        for v in outcome.results {
            assert_eq!(v.len(), 100);
            assert_eq!(v[99], 99);
        }
        // 100 u32s = 400 bytes per tree edge, 4 edges.
        assert_eq!(outcome.stats.bytes, 4 * 400);
    }

    #[test]
    fn bcast_uses_logarithmically_many_rounds() {
        // With 8 ranks a binomial tree has depth 3; the last receiver's
        // modeled clock must be ~3·(α+β·b), not 7·(α+β·b) (flat) — pin the
        // tree shape via message count and modeled depth.
        let outcome = Runtime::new(8).run(|comm| {
            let value = if comm.rank() == 0 { Some(7u64) } else { None };
            comm.bcast(0, value);
            comm.now()
        });
        assert_eq!(outcome.stats.messages, 7, "tree edges");
        let alpha = 5.0e-6;
        let deepest = outcome.results.iter().cloned().fold(0.0, f64::max);
        // Depth 3 tree: ≥ 3 end-to-end latencies but well under 7 plus the
        // root's serial send overhead of its 3 children.
        assert!(deepest >= 3.0 * alpha, "deepest={deepest}");
        assert!(deepest <= 5.5 * alpha, "deepest={deepest}");
    }

    #[test]
    fn bcast_splittable_is_the_whole_state_bcast_from_every_root() {
        // `split` and `unsplit` are never called: one message per tree
        // edge, of the whole state's bytes.
        for p in 1..=9usize {
            for root in [0, p / 2, p - 1] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let value = (comm.rank() == root)
                        .then(|| (0..12).map(|i| i + 100).collect::<Vec<u64>>());
                    let unused = |_: Vec<u64>, _: usize| -> Vec<Vec<u64>> { unreachable!() };
                    let unused_too = |_: Vec<Vec<u64>>| -> Vec<u64> { unreachable!() };
                    comm.bcast_splittable(root, value, 96, unused, unused_too, bytes_u64)
                });
                let expect: Vec<u64> = (0..12).map(|i| i + 100).collect();
                assert_eq!(outcome.results, vec![expect; p], "p={p} root={root}");
                assert_eq!(outcome.stats.messages, p as u64 - 1, "p={p} root={root}");
                assert_eq!(outcome.stats.bytes, 96 * (p as u64 - 1), "p={p}");
            }
        }
    }

    #[test]
    fn reduce_sums_to_every_root() {
        for p in 1..=9usize {
            for root in [0, p / 2, p - 1] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank() as u64 + 1; 12];
                    comm.reduce(root, state, bytes_u64, add)
                });
                let total: u64 = (1..=p as u64).sum();
                for (r, res) in outcome.results.iter().enumerate() {
                    if r == root {
                        assert_eq!(res.as_ref().unwrap(), &vec![total; 12], "p={p}");
                    } else {
                        assert!(res.is_none(), "p={p} r={r}");
                    }
                }
            }
        }
        for p in [1usize, 2, 3, 5, 8, 13] {
            for root in [0, p - 1] {
                let outcome = Runtime::new(p).run(move |comm| {
                    comm.reduce(root, comm.rank() as u64 + 1, |_| 8, |a, b| a + b)
                });
                let expected = (p * (p + 1) / 2) as u64;
                for (rank, res) in outcome.results.into_iter().enumerate() {
                    assert_eq!(res, (rank == root).then_some(expected), "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_preserves_rank_order_for_non_commutative_ops() {
        for p in 1..=9usize {
            for root in [0, p / 2, p - 1] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank().to_string(); 6];
                    let wire = |v: &Vec<String>| v.iter().map(String::len).sum();
                    comm.reduce(root, state, wire, concat)
                });
                let expect: String = (0..p).map(|r| r.to_string()).collect();
                assert_eq!(
                    outcome.results[root].as_ref().unwrap(),
                    &vec![expect; 6],
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn reduce_message_count_pins() {
        // p − 1 tree messages, plus one ship message when root ≠ 0.
        for (p, root, expect) in [
            (8usize, 0usize, 7),
            (8, 5, 8),
            (5, 0, 4),
            (5, 4, 5),
            (1, 0, 0),
        ] {
            let outcome = Runtime::new(p).run(move |comm| {
                comm.reduce(root, vec![comm.rank() as u64; 16], bytes_u64, add);
            });
            assert_eq!(outcome.stats.messages, expect as u64, "p={p} root={root}");
        }
    }

    #[test]
    fn allreduce_reduce_bcast_delivers_everywhere() {
        let outcome = Runtime::new(7).run(move |comm| {
            let tree = AllreduceAlgorithm::ReduceBroadcast;
            comm.allreduce_by(tree, comm.rank() as i64, whole(), |_| 8, |a, b| a.max(b))
        });
        assert_eq!(outcome.results, vec![6; 7]);
    }

    #[test]
    fn tree_allreduce_message_count_is_up_plus_down() {
        for p in [8usize, 5, 2, 1] {
            let outcome = Runtime::new(p).run(move |comm| {
                tree_allreduce(comm, vec![comm.rank() as u64; 16]);
            });
            assert_eq!(outcome.stats.messages, (2 * (p - 1)) as u64, "p={p}");
        }
    }

    #[test]
    fn all_tree_schedules_match_oracle_up_to_seventeen_ranks() {
        // Wide-p sweep past the power-of-two edge cases (9, 16, 17) with a
        // non-commutative operator: element-wise string concat is only
        // correct if every schedule combines strictly in rank order.
        for p in [1usize, 2, 3, 9, 11, 16, 17] {
            let outcome = Runtime::new(p).run(move |comm| {
                let state = vec![comm.rank().to_string(); 4];
                let wire = |v: &Vec<String>| v.iter().map(String::len).sum();
                let tree = AllreduceAlgorithm::ReduceBroadcast;
                let at = comm.allreduce_by(tree, state.clone(), whole(), wire, concat);
                let rd = comm.reduce(p - 1, state, wire, concat);
                let bc = comm.bcast(0, (comm.rank() == 0).then(|| vec!["x".to_string(); 4]));
                (at, rd, bc)
            });
            let oracle: String = (0..p).map(|r| r.to_string()).collect();
            for (r, (at, rd, bc)) in outcome.results.iter().enumerate() {
                assert_eq!(at, &vec![oracle.clone(); 4], "tree allreduce p={p} r={r}");
                if r == p - 1 {
                    assert_eq!(rd, &Some(vec![oracle.clone(); 4]), "reduce p={p}");
                } else {
                    assert!(rd.is_none(), "reduce p={p} r={r}");
                }
                assert_eq!(bc, &vec!["x".to_string(); 4], "bcast p={p} r={r}");
            }
        }
    }

    // `root == p` once was reduced mod p by the bcast (rank 0 then died
    // with "the bcast root must supply the value") and made the reduce
    // send to a rank that does not exist; the tree rejects it up front.
    #[test]
    #[should_panic(expected = "out of range")]
    fn bcast_rejects_an_out_of_range_root() {
        Runtime::new(3)
            .no_watchdog()
            .run(move |comm| comm.bcast_vec(3, Some(vec![1u64; 6])));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reduce_rejects_an_out_of_range_root() {
        Runtime::new(3)
            .no_watchdog()
            .run(move |comm| comm.reduce(3, vec![1u64; 6], bytes_u64, add));
    }
}
