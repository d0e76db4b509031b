//! The one segmented binomial tree: broadcast down, reduce up, and the
//! fused allreduce that does both.
//!
//! The state travels as `S` segments (the `SplittableState` laws from
//! `gv-core`); segment `j` moves one tree level behind segment `j−1`, so
//! for large states the bandwidth term is paid once, not once per level
//! (see the estimates in [`crate::cost`]). A whole, unsplittable state is
//! the `S = 1` instance — the [`whole`] segmentation — and then
//! the schedules *are* the textbook binomial broadcast, reduce and
//! reduce-then-broadcast: same edges, same order, same modeled clock.
//!
//! Three schedules share two sweeps over the tree rooted at a given rank
//! (the binomial tree of rank 0, rotated by the root):
//!
//! * `up_sweep` reduces every segment toward the root. A rank receives
//!   its children's partials in increasing-mask order and combines
//!   `(own, child)` — the child's partial covers exactly the virtual
//!   ranks just above the receiver's, so every combine is a vrank-order
//!   association: rank order at root 0, where non-commutative operators
//!   are safe, and a rotation of it anywhere else.
//! * `down_sweep` relays every segment from the root to all ranks,
//!   deepest subtree first, each rank forwarding a segment to its
//!   children the moment it arrives.
//!
//! `tree_bcast` is a down-sweep rooted anywhere, `(p−1)·S` messages.
//! `tree_reduce` is an up-sweep to rank 0 — rotating a non-commutative
//! tree would permute the combine order — which streams finished
//! segments on to a non-zero root as they complete: `(p−1)·S` messages,
//! plus `S` when the root is not rank 0. `tree_allreduce` hands each
//! segment that reaches its root straight to the down-sweep, so segment
//! `j`'s descent overlaps segment `j+1`'s climb: `2(p−1)·S` messages on
//! a `2⌈log₂p⌉`-hop critical path. Every blocking call roots it at rank
//! 0; a commutative request roots it at its call sequence mod p, so
//! consecutive requests spread their combines over the ranks
//! (`select.rs`).
//!
//! Memory discipline: payloads move by value. An arriving partial is
//! combined *into*, a segment forwarded to one peer is sent by move, and
//! the only clones are the down-sweep's keep-and-forward fan-out, one
//! per child. At `S = 1` a state is held as itself, not as a one-segment
//! list (`Segments`), so the whole-state tree allocates nothing of its
//! own.
//!
//! The sweeps and the fused allreduce, which a request boxes, are plain
//! `fn`s returning an `async move` block, not `async fn`s: an `async fn`
//! keeps its arguments a second time beside the locals they move into
//! (`a_requests_schedule_stays_small` pins the sizes).

use std::future::Future;

use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;
use crate::request::{recv, recv_last};

/// The `(split, unsplit)` pair of a whole, unsplittable state: its
/// one-segment segmentation. Pass it where an entry point takes a
/// segmentation ([`Comm::allreduce_by`], [`Comm::scan_both_by`]) and the
/// state cannot be split; only a plan of one segment may then run.
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

pub(crate) fn split_into<T>(
    value: T,
    segments: usize,
    split: impl FnOnce(T, usize) -> Vec<T>,
) -> Vec<T> {
    let segs = split(value, segments);
    assert_eq!(
        segs.len(),
        segments,
        "split must return exactly the requested number of segments"
    );
    segs
}

/// The segments of one call's state a rank holds. A whole state is held
/// as itself: at `S = 1` the round-trip law makes `split` and `unsplit`
/// the identity, so the tree calls neither and allocates no list.
enum Segments<T> {
    Whole(Option<T>),
    Split(Vec<T>),
}

impl<T> Segments<T> {
    /// Room for `s` segments, none held yet.
    fn with_capacity(s: usize) -> Self {
        if s == 1 {
            Segments::Whole(None)
        } else {
            Segments::Split(Vec::with_capacity(s))
        }
    }

    /// `value` cut into `s` segments.
    fn split(value: T, s: usize, split: impl FnOnce(T, usize) -> Vec<T>) -> Self {
        if s == 1 {
            Segments::Whole(Some(value))
        } else {
            Segments::Split(split_into(value, s, split))
        }
    }

    fn len(&self) -> usize {
        match self {
            Segments::Whole(seg) => usize::from(seg.is_some()),
            Segments::Split(segs) => segs.len(),
        }
    }

    fn push(&mut self, seg: T) {
        match self {
            Segments::Whole(slot) => {
                debug_assert!(slot.is_none(), "a whole state is one segment");
                *slot = Some(seg);
            }
            Segments::Split(segs) => segs.push(seg),
        }
    }

    fn unsplit(self, unsplit: impl FnOnce(Vec<T>) -> T) -> T {
        match self {
            Segments::Whole(seg) => seg.expect("a whole state is one segment"),
            Segments::Split(segs) => unsplit(segs),
        }
    }
}

impl<T> IntoIterator for Segments<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (whole, split) = match self {
            Segments::Whole(seg) => (seg, Vec::new()),
            Segments::Split(segs) => (None, segs),
        };
        whole.into_iter().chain(split)
    }
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

/// One rank's share of the reduce toward `root`: each segment, in order,
/// takes in the partials of this rank's tree children (increasing-mask
/// order) and goes on to its parent; at the root it is complete and goes
/// to `at_top`. The combines follow vrank order, which is rank order
/// only for `root` 0.
fn up_sweep<'a, T: Send + 'static>(
    comm: &'a Comm,
    root: usize,
    tag: Key,
    segs: Segments<T>,
    bytes_of: &'a impl Fn(&T) -> usize,
    mut combine: impl FnMut(T, T) -> T + 'a,
    mut at_top: impl FnMut(T) + 'a,
) -> impl Future<Output = Result<(), ShutdownError>> + 'a {
    let p = comm.size();
    let (vrank, low) = position(comm, root);
    async move {
        for mut seg in segs {
            let mut m = 1;
            while m < low && vrank + m < p {
                let later = recv::<T>(comm, (vrank + m + root) % p, tag).await?;
                seg = combine(seg, later);
                m <<= 1;
            }
            if vrank == 0 {
                at_top(seg);
            } else {
                let bytes = bytes_of(&seg);
                comm.send_key((vrank - low + root) % p, tag, seg, bytes);
            }
        }
        Ok(())
    }
}

/// Sends `seg` to every child in the tree rooted at `root`, largest
/// subtree first (the child that must relay deepest gets its copy
/// earliest).
fn relay<T: Clone + Send + 'static>(
    comm: &Comm,
    root: usize,
    tag: Key,
    bytes_of: &impl Fn(&T) -> usize,
    seg: &T,
) {
    let p = comm.size();
    let (vrank, mask) = position(comm, root);
    let mut m = mask >> 1;
    while m > 0 {
        if vrank + m < p {
            let bytes = bytes_of(seg);
            comm.send_key((vrank + m + root) % p, tag, seg.clone(), bytes);
        }
        m >>= 1;
    }
}

/// One rank's share of the relay from `root` to everyone: receives
/// segments from the tree parent in order, relaying each on arrival,
/// until `segs` holds all `total` (at the root they are already in hand,
/// relayed by the caller).
fn down_sweep<'a, T: Clone + Send + 'static>(
    comm: &'a Comm,
    root: usize,
    tag: Key,
    bytes_of: &'a impl Fn(&T) -> usize,
    mut segs: Segments<T>,
    total: usize,
) -> impl Future<Output = Result<Segments<T>, ShutdownError>> + 'a {
    let p = comm.size();
    let (vrank, mask) = position(comm, root);
    // A rank without children relays nothing: its last segment is the
    // schedule's last receive.
    let leaf = mask == 1 || vrank + 1 == p;
    async move {
        while segs.len() < total {
            let parent = (vrank + p - mask + root) % p;
            let seg = if leaf && segs.len() + 1 == total {
                recv_last::<T>(comm, parent, tag).await?
            } else {
                recv::<T>(comm, parent, tag).await?
            };
            relay(comm, root, tag, bytes_of, &seg);
            segs.push(seg);
        }
        Ok(segs)
    }
}

/// Broadcast from `root` (`value` is `Some` there and ignored elsewhere):
/// the root splits and fans out every segment, every other rank runs the
/// down-sweep.
pub(crate) async fn tree_bcast<T: Clone + Send + 'static>(
    comm: Comm,
    root: usize,
    value: Option<T>,
    segments: usize,
    (split, unsplit): (impl FnOnce(T, usize) -> Vec<T>, impl FnOnce(Vec<T>) -> T),
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
) -> Result<T, ShutdownError> {
    assert!(root < comm.size(), "bcast root {root} out of range");
    let s = segments.max(1);
    let tag = TagBase::Bcast.key(seq);
    let mut segs = Segments::with_capacity(s);
    if comm.rank() == root {
        let value = value.expect("the bcast root must supply the value");
        for seg in Segments::split(value, s, split) {
            relay(&comm, root, tag, &bytes_of, &seg);
            segs.push(seg);
        }
    }
    let segs = down_sweep(&comm, root, tag, &bytes_of, segs, s).await?;
    Ok(segs.unsplit(unsplit))
}

/// Reduce to `root`: `Some(result)` there, `None` elsewhere. The
/// up-sweep climbs to rank 0, so the combines keep rank order.
#[allow(clippy::too_many_arguments)]
pub(crate) async fn tree_reduce<T: Send + 'static>(
    comm: Comm,
    root: usize,
    value: T,
    segments: usize,
    (split, unsplit): (impl FnOnce(T, usize) -> Vec<T>, impl FnOnce(Vec<T>) -> T),
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    combine: impl FnMut(T, T) -> T,
) -> Result<Option<T>, ShutdownError> {
    assert!(root < comm.size(), "reduce root {root} out of range");
    let s = segments.max(1);
    let tag = TagBase::Reduce.key(seq);
    let mut collected = Segments::with_capacity(s);
    let segs = Segments::split(value, s, split);
    up_sweep(&comm, 0, tag, segs, &bytes_of, combine, |seg| {
        if root == 0 {
            collected.push(seg);
        } else {
            // Rank 0 streams each finished segment to the root at once:
            // the ship pipelines behind the remaining climbs.
            let bytes = bytes_of(&seg);
            comm.send_key(root, tag, seg, bytes);
        }
    })
    .await?;
    if comm.rank() != root {
        return Ok(None);
    }
    while collected.len() < s {
        collected.push(recv(&comm, 0, tag).await?);
    }
    Ok(Some(collected.unsplit(unsplit)))
}

/// Fused allreduce on the tree rooted at `root`: up-sweep, each finished
/// segment handed straight to the down-sweep. Any root but 0 combines in
/// a rotated rank order, which only a commutative operator allows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tree_allreduce<T: Clone + Send + 'static>(
    comm: Comm,
    root: usize,
    value: T,
    segments: usize,
    (split, unsplit): (impl FnOnce(T, usize) -> Vec<T>, impl FnOnce(Vec<T>) -> T),
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    combine: impl FnMut(T, T) -> T,
) -> impl Future<Output = Result<T, ShutdownError>> {
    let s = segments.max(1);
    let (up, down) = (
        TagBase::AllreduceTreeUp.key(seq),
        TagBase::AllreduceTreeDown.key(seq),
    );
    async move {
        let segs = Segments::split(value, s, split);
        let mut top = Segments::with_capacity(s);
        up_sweep(&comm, root, up, segs, &bytes_of, combine, |seg| {
            relay(&comm, root, down, &bytes_of, &seg);
            top.push(seg);
        })
        .await?;
        let segs = down_sweep(&comm, root, down, &bytes_of, top, s).await?;
        Ok(segs.unsplit(unsplit))
    }
}

impl Comm {
    /// Broadcasts from `root`. The root passes `Some(value)`, every other
    /// rank passes `None`; all ranks return the value.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.start_bcast(1, root, value, whole(), |_| std::mem::size_of::<T>())
    }

    /// Broadcast of a vector, modeling `len · size_of::<T>()` wire bytes.
    pub fn bcast_vec<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
    ) -> Vec<T> {
        self.start_bcast(1, root, value, whole(), vec_bytes)
    }

    /// Broadcast with an explicit segment count, bypassing the
    /// cost-driven selector (the selector-routed entry is
    /// [`bcast_splittable`](Self::bcast_splittable)). The root passes
    /// `Some(value)`; `split`/`unsplit` must satisfy the
    /// `SplittableState` laws.
    pub fn bcast_pipelined<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        segments: usize,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl FnOnce(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
    ) -> T {
        self.start_bcast(segments, root, value, (split, unsplit), bytes_of)
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
        self.start_reduce(1, root, value, whole(), bytes_of, combine)
    }

    /// Rooted reduce with an explicit segment count (`Some(result)` at
    /// the root, `None` elsewhere). Safe for non-commutative operators:
    /// every combine respects rank order, per segment.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_pipelined<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        segments: usize,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl FnOnce(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        self.start_reduce(segments, root, value, (split, unsplit), bytes_of, combine)
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
    use crate::cost::{AllreduceAlgorithm, CostModel};
    use crate::runtime::Runtime;
    use gv_core::split::{split_vec_segments, unsplit_vec_segments};

    fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }

    /// The fused tree allreduce at `segments` segments.
    fn tree_allreduce(comm: &Comm, state: Vec<u64>, segments: usize) -> Vec<u64> {
        let plan = (AllreduceAlgorithm::PipelinedTree, segments);
        comm.allreduce_by(
            plan,
            state,
            (split_vec_segments, unsplit_vec_segments),
            bytes_u64,
            add,
        )
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
    fn segmented_bcast_matches_plain_bcast_for_every_root_and_segments() {
        for p in 1..=9usize {
            for segments in [1usize, 2, 3, 7] {
                for root in [0, p / 2, p - 1] {
                    let outcome = Runtime::new(p).run(move |comm| {
                        let value = (comm.rank() == root)
                            .then(|| (0..12).map(|i| i + 100).collect::<Vec<u64>>());
                        comm.bcast_pipelined(
                            root,
                            value,
                            segments,
                            split_vec_segments,
                            unsplit_vec_segments,
                            bytes_u64,
                        )
                    });
                    let expect: Vec<u64> = (0..12).map(|i| i + 100).collect();
                    assert_eq!(
                        outcome.results,
                        vec![expect; p],
                        "p={p} s={segments} root={root}"
                    );
                }
            }
        }
    }

    #[test]
    fn segmented_bcast_message_count_is_ranks_minus_one_times_segments() {
        for (p, s) in [(8usize, 4usize), (5, 3), (2, 7), (1, 4)] {
            let outcome = Runtime::new(p).run(move |comm| {
                let value = (comm.rank() == 0).then(|| vec![7u64; 16]);
                comm.bcast_pipelined(
                    0,
                    value,
                    s,
                    split_vec_segments,
                    unsplit_vec_segments,
                    bytes_u64,
                );
            });
            assert_eq!(outcome.stats.messages, ((p - 1) * s) as u64, "p={p} s={s}");
        }
    }

    #[test]
    fn reduce_sums_to_every_root() {
        for p in 1..=9usize {
            for segments in [1usize, 3, 7] {
                for root in [0, p / 2, p - 1] {
                    let outcome = Runtime::new(p).run(move |comm| {
                        let state = vec![comm.rank() as u64 + 1; 12];
                        comm.reduce_pipelined(
                            root,
                            state,
                            segments,
                            split_vec_segments,
                            unsplit_vec_segments,
                            bytes_u64,
                            add,
                        )
                    });
                    let total: u64 = (1..=p as u64).sum();
                    for (r, res) in outcome.results.iter().enumerate() {
                        if r == root {
                            assert_eq!(
                                res.as_ref().unwrap(),
                                &vec![total; 12],
                                "p={p} s={segments}"
                            );
                        } else {
                            assert!(res.is_none(), "p={p} s={segments} r={r}");
                        }
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
            for segments in [1usize, 2, 5] {
                let root = p - 1;
                let outcome = Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank().to_string(); 6];
                    comm.reduce_pipelined(
                        root,
                        state,
                        segments,
                        split_vec_segments,
                        unsplit_vec_segments,
                        |v: &Vec<String>| v.iter().map(String::len).sum(),
                        concat,
                    )
                });
                let expect: String = (0..p).map(|r| r.to_string()).collect();
                assert_eq!(
                    outcome.results[root].as_ref().unwrap(),
                    &vec![expect; 6],
                    "p={p} s={segments}"
                );
            }
        }
    }

    #[test]
    fn reduce_message_count_pins() {
        // (p−1)·S tree messages, plus S ship messages when root ≠ 0.
        for (p, s, root, expect) in [
            (8usize, 4usize, 0usize, 7 * 4),
            (8, 4, 5, 7 * 4 + 4),
            (8, 1, 5, 7 + 1),
            (5, 3, 0, 4 * 3),
            (1, 4, 0, 0),
        ] {
            let outcome = Runtime::new(p).run(move |comm| {
                let state = vec![comm.rank() as u64; 16];
                comm.reduce_pipelined(
                    root,
                    state,
                    s,
                    split_vec_segments,
                    unsplit_vec_segments,
                    bytes_u64,
                    add,
                );
            });
            assert_eq!(
                outcome.stats.messages, expect as u64,
                "p={p} s={s} root={root}"
            );
        }
    }

    #[test]
    fn allreduce_reduce_bcast_delivers_everywhere() {
        let outcome = Runtime::new(7).run(move |comm| {
            let plan = (AllreduceAlgorithm::ReduceBroadcast, 1);
            comm.allreduce_by(plan, comm.rank() as i64, whole(), |_| 8, |a, b| a.max(b))
        });
        assert_eq!(outcome.results, vec![6; 7]);
    }

    #[test]
    fn tree_allreduce_handles_empty_segments() {
        // More segments than elements: empty tail segments must flow
        // through split/combine/unsplit intact.
        let outcome =
            Runtime::new(4).run(|comm| tree_allreduce(comm, vec![comm.rank() as u64 + 1; 2], 5));
        assert_eq!(outcome.results, vec![vec![10u64; 2]; 4]);
    }

    #[test]
    fn tree_allreduce_message_count_is_up_plus_down() {
        for (p, s) in [(8usize, 4usize), (5, 3), (2, 6), (1, 3)] {
            let outcome = Runtime::new(p).run(move |comm| {
                tree_allreduce(comm, vec![comm.rank() as u64; 16], s);
            });
            assert_eq!(
                outcome.stats.messages,
                (2 * (p - 1) * s) as u64,
                "p={p} s={s}"
            );
        }
    }

    #[test]
    fn segmented_schedules_beat_whole_state_at_large_sizes() {
        // The acceptance shape: modeled time of the segmented schedule vs
        // the S = 1 one, 256 KiB state at p = 8, default cost model.
        let elems = (256usize << 10) / 8;
        let p = 8;
        let mono = Runtime::new(p).run(move |comm| {
            let value = (comm.rank() == 0).then(|| vec![1u64; elems]);
            comm.bcast_vec(0, value);
        });
        let segs =
            crate::cost::BcastAlgorithm::tree_segments(&CostModel::cluster_2006(), p, elems * 8);
        let piped = Runtime::new(p).run(move |comm| {
            let value = (comm.rank() == 0).then(|| vec![1u64; elems]);
            comm.bcast_pipelined(
                0,
                value,
                segs,
                split_vec_segments,
                unsplit_vec_segments,
                bytes_u64,
            );
        });
        assert!(
            piped.modeled_seconds * 2.0 <= mono.modeled_seconds,
            "segmented bcast {} vs whole-state {}",
            piped.modeled_seconds,
            mono.modeled_seconds
        );
    }

    #[test]
    fn all_tree_schedules_match_oracle_up_to_seventeen_ranks() {
        // Wide-p sweep past the power-of-two edge cases (9, 16, 17) with a
        // non-commutative operator: element-wise string concat is only
        // correct if every schedule combines strictly in rank order.
        for p in [1usize, 2, 3, 9, 11, 16, 17] {
            for segments in [1usize, 3] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank().to_string(); 4];
                    let wire = |v: &Vec<String>| v.iter().map(String::len).sum();
                    let at = comm.allreduce_by(
                        (AllreduceAlgorithm::PipelinedTree, segments),
                        state.clone(),
                        (split_vec_segments, unsplit_vec_segments),
                        wire,
                        concat,
                    );
                    let rd = comm.reduce_pipelined(
                        p - 1,
                        state,
                        segments,
                        split_vec_segments,
                        unsplit_vec_segments,
                        wire,
                        concat,
                    );
                    let bc = comm.bcast_pipelined(
                        0,
                        (comm.rank() == 0).then(|| vec!["x".to_string(); 4]),
                        segments,
                        split_vec_segments,
                        unsplit_vec_segments,
                        wire,
                    );
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
    }

    // `root == p` used to be reduced mod p by the segmented bcast (rank 0
    // then died with "the bcast root must supply the value") and made the
    // segmented reduce send to a rank that does not exist; the tree
    // rejects it up front at every S.
    fn bcast_to_root_p(segments: usize) {
        Runtime::new(3).no_watchdog().run(move |comm| {
            comm.bcast_pipelined(
                3,
                Some(vec![1u64; 6]),
                segments,
                split_vec_segments,
                unsplit_vec_segments,
                bytes_u64,
            )
        });
    }

    fn reduce_to_root_p(segments: usize) {
        Runtime::new(3).no_watchdog().run(move |comm| {
            comm.reduce_pipelined(
                3,
                vec![1u64; 6],
                segments,
                split_vec_segments,
                unsplit_vec_segments,
                bytes_u64,
                add,
            )
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bcast_rejects_an_out_of_range_root_at_one_segment() {
        bcast_to_root_p(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bcast_rejects_an_out_of_range_root_at_three_segments() {
        bcast_to_root_p(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reduce_rejects_an_out_of_range_root_at_one_segment() {
        reduce_to_root_p(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reduce_rejects_an_out_of_range_root_at_three_segments() {
        reduce_to_root_p(3);
    }
}
