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
//! Three schedules share two sweeps:
//!
//! * [`UpSweep`] reduces every segment toward rank 0. A rank receives
//!   its children's partials in increasing-mask order and combines
//!   `(own, child)` — the child's partial covers exactly the ranks just
//!   above the receiver's, so every combine is a rank-order association
//!   and non-commutative operators are safe.
//! * [`DownSweep`] relays every segment from the root to all ranks,
//!   deepest subtree first, each rank forwarding a segment to its
//!   children the moment it arrives.
//!
//! [`TreeBcast`] is a down-sweep rooted anywhere (the tree is rotated by
//! the root), `(p−1)·S` messages. [`TreeReduce`] is an up-sweep to rank 0
//! — rotating a non-commutative tree would permute the combine order —
//! which streams finished segments on to a non-zero root as they
//! complete: `(p−1)·S` messages, plus `S` when the root is not rank 0.
//! [`TreeAllreduce`] hands each segment that reaches rank 0 straight to
//! the down-sweep, so segment `j`'s descent overlaps segment `j+1`'s
//! climb: `2(p−1)·S` messages on a `2⌈log₂p⌉`-hop critical path.
//!
//! Memory discipline: payloads move by value. An arriving partial is
//! combined *into*, a segment forwarded to one peer is sent by move, and
//! the only clones are the down-sweep's keep-and-forward fan-out, one
//! per child.

use super::launch::{Blocking, Nonblocking};
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Tag;
use crate::request::{Request, Schedule};

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

/// One rank's share of the reduce toward rank 0. The segment iterator is
/// the program counter; within a segment, `child_idx` is: each poll
/// resumes at the child whose partial has not arrived yet.
struct UpSweep<T> {
    /// Tree children of this rank, in increasing-mask order.
    children: Vec<usize>,
    /// Tree parent (`None` on rank 0).
    parent: Option<usize>,
    remaining: std::vec::IntoIter<T>,
    current: Option<T>,
    child_idx: usize,
}

impl<T: Send + 'static> UpSweep<T> {
    fn new(comm: &Comm, segs: Vec<T>) -> Self {
        let p = comm.size();
        let r = comm.rank();
        let mut children = Vec::new();
        let mut parent = None;
        let mut mask = 1usize;
        while mask < p {
            if r & mask != 0 {
                parent = Some(r - mask);
                break;
            }
            if r + mask < p {
                children.push(r + mask);
            }
            mask <<= 1;
        }
        UpSweep {
            children,
            parent,
            remaining: segs.into_iter(),
            current: None,
            child_idx: 0,
        }
    }

    /// Advances as far as the arrived partials allow. A segment this rank
    /// has finished goes to its parent; on rank 0 it is complete and goes
    /// to `at_top`. `Ok(true)` once every segment has left this rank.
    fn poll(
        &mut self,
        comm: &Comm,
        tag: Tag,
        bytes_of: &impl Fn(&T) -> usize,
        combine: &mut impl FnMut(T, T) -> T,
        mut at_top: impl FnMut(T),
    ) -> Result<bool, ShutdownError> {
        loop {
            if self.current.is_none() {
                match self.remaining.next() {
                    Some(seg) => self.current = Some(seg),
                    None => return Ok(true),
                }
            }
            while self.child_idx < self.children.len() {
                let child = self.children[self.child_idx];
                let Some(later) = comm.try_recv_schedule::<T>(child, tag)? else {
                    return Ok(false);
                };
                let acc = self.current.take().expect("segment in flight");
                self.current = Some(combine(acc, later));
                self.child_idx += 1;
            }
            let seg = self.current.take().expect("segment in flight");
            self.child_idx = 0;
            match self.parent {
                Some(parent) => {
                    let bytes = bytes_of(&seg);
                    comm.send_with_bytes(parent, tag, seg, bytes);
                }
                None => at_top(seg),
            }
        }
    }
}

/// One rank's share of the relay from `root` to everyone, on the binomial
/// tree rotated so the root is virtual rank 0.
struct DownSweep<T> {
    root: usize,
    vrank: usize,
    /// The mask the tree walk stopped at: the root's covers the whole
    /// tree, any other rank's is its lowest set vrank bit (its parent
    /// link).
    mask: usize,
    total: usize,
    received: Vec<T>,
}

impl<T: Clone + Send + 'static> DownSweep<T> {
    fn new(comm: &Comm, root: usize, total: usize) -> Self {
        let p = comm.size();
        let vrank = (comm.rank() + p - root) % p;
        let mut mask = 1usize;
        while mask < p && vrank & mask == 0 {
            mask <<= 1;
        }
        DownSweep {
            root,
            vrank,
            mask,
            total,
            received: Vec::with_capacity(total),
        }
    }

    /// Sends `seg` to every tree child, largest subtree first (the child
    /// that must relay deepest gets its copy earliest), then keeps it.
    fn relay(&mut self, comm: &Comm, tag: Tag, bytes_of: &impl Fn(&T) -> usize, seg: T) {
        let p = comm.size();
        let mut m = self.mask >> 1;
        while m > 0 {
            if self.vrank + m < p {
                let child = (self.vrank + m + self.root) % p;
                let bytes = bytes_of(&seg);
                comm.send_with_bytes(child, tag, seg.clone(), bytes);
            }
            m >>= 1;
        }
        self.received.push(seg);
    }

    /// Receives segments from the tree parent in order, relaying each on
    /// arrival. `Ok(true)` once all `total` segments are here (at the
    /// root: once it has relayed them all).
    fn poll(
        &mut self,
        comm: &Comm,
        tag: Tag,
        bytes_of: &impl Fn(&T) -> usize,
    ) -> Result<bool, ShutdownError> {
        let p = comm.size();
        while self.received.len() < self.total {
            let parent = (self.vrank + p - self.mask + self.root) % p;
            let Some(seg) = comm.try_recv_schedule::<T>(parent, tag)? else {
                return Ok(false);
            };
            self.relay(comm, tag, bytes_of, seg);
        }
        Ok(true)
    }
}

/// Resumable broadcast from `root`: the root splits and fans out every
/// segment at construction (sends are non-blocking); every other rank's
/// poll is the down-sweep.
pub(crate) struct TreeBcast<T, B, U> {
    comm: Comm,
    tag: Tag,
    bytes_of: B,
    /// `FnOnce`, consumed when the last segment lands.
    unsplit: Option<U>,
    down: DownSweep<T>,
}

impl<T, B, U> TreeBcast<T, B, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    U: FnOnce(Vec<T>) -> T,
{
    /// `value` is `Some` at the root and ignored elsewhere.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        comm: Comm,
        root: usize,
        value: Option<T>,
        segments: usize,
        split: impl FnOnce(T, usize) -> Vec<T>,
        salt: Tag,
        bytes_of: B,
        unsplit: U,
    ) -> Self {
        assert!(root < comm.size(), "bcast root {root} out of range");
        let s = segments.max(1);
        let tag = TagBase::Bcast.tag(salt);
        let mut down = DownSweep::new(&comm, root, s);
        if down.vrank == 0 {
            let value = value.expect("the bcast root must supply the value");
            for seg in split_into(value, s, split) {
                down.relay(&comm, tag, &bytes_of, seg);
            }
        }
        TreeBcast {
            comm,
            tag,
            bytes_of,
            unsplit: Some(unsplit),
            down,
        }
    }
}

impl<T, B, U> Schedule for TreeBcast<T, B, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    U: FnOnce(Vec<T>) -> T,
{
    type Output = T;

    fn poll(&mut self) -> Result<Option<T>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        if !self.down.poll(&self.comm, self.tag, &self.bytes_of)? {
            return Ok(None);
        }
        let unsplit = self
            .unsplit
            .take()
            .expect("schedule polled past completion");
        Ok(Some(unsplit(std::mem::take(&mut self.down.received))))
    }
}

/// Resumable reduce to `root`: `Some(result)` there, `None` elsewhere.
pub(crate) struct TreeReduce<T, B, F, U> {
    comm: Comm,
    tag: Tag,
    bytes_of: B,
    combine: F,
    /// `FnOnce`, consumed when the root reassembles the result.
    unsplit: Option<U>,
    root: usize,
    up: UpSweep<T>,
    collected: Vec<T>,
    total: usize,
}

impl<T, B, F, U> TreeReduce<T, B, F, U>
where
    T: Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
    U: FnOnce(Vec<T>) -> T,
{
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        comm: Comm,
        root: usize,
        value: T,
        segments: usize,
        split: impl FnOnce(T, usize) -> Vec<T>,
        salt: Tag,
        bytes_of: B,
        combine: F,
        unsplit: U,
    ) -> Self {
        assert!(root < comm.size(), "reduce root {root} out of range");
        let s = segments.max(1);
        let up = UpSweep::new(&comm, split_into(value, s, split));
        TreeReduce {
            comm,
            tag: TagBase::Reduce.tag(salt),
            bytes_of,
            combine,
            unsplit: Some(unsplit),
            root,
            up,
            collected: Vec::with_capacity(s),
            total: s,
        }
    }
}

impl<T, B, F, U> Schedule for TreeReduce<T, B, F, U>
where
    T: Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
    U: FnOnce(Vec<T>) -> T,
{
    type Output = Option<T>;

    fn poll(&mut self) -> Result<Option<Option<T>>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        let TreeReduce {
            comm,
            tag,
            bytes_of,
            combine,
            root,
            up,
            collected,
            ..
        } = self;
        let climbed = up.poll(comm, *tag, bytes_of, combine, |seg| {
            if *root == 0 {
                collected.push(seg);
            } else {
                // Rank 0 streams each finished segment to the root at
                // once: the ship pipelines behind the remaining climbs.
                let bytes = bytes_of(&seg);
                comm.send_with_bytes(*root, *tag, seg, bytes);
            }
        })?;
        if !climbed {
            return Ok(None);
        }
        if self.comm.rank() != self.root {
            return Ok(Some(None));
        }
        while self.collected.len() < self.total {
            let Some(seg) = self.comm.try_recv_schedule::<T>(0, self.tag)? else {
                return Ok(None);
            };
            self.collected.push(seg);
        }
        let unsplit = self
            .unsplit
            .take()
            .expect("schedule polled past completion");
        Ok(Some(Some(unsplit(std::mem::take(&mut self.collected)))))
    }
}

/// Resumable fused allreduce: up-sweep to rank 0, each finished segment
/// handed straight to the down-sweep.
pub(crate) struct TreeAllreduce<T, B, F, U> {
    comm: Comm,
    up_tag: Tag,
    down_tag: Tag,
    bytes_of: B,
    combine: F,
    /// `FnOnce`, consumed when every segment has come back down.
    unsplit: Option<U>,
    up: UpSweep<T>,
    down: DownSweep<T>,
}

impl<T, B, F, U> TreeAllreduce<T, B, F, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
    U: FnOnce(Vec<T>) -> T,
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
    ) -> Self {
        let s = segments.max(1);
        let up = UpSweep::new(&comm, split_into(value, s, split));
        let down = DownSweep::new(&comm, 0, s);
        TreeAllreduce {
            comm,
            up_tag: TagBase::AllreduceTreeUp.tag(salt),
            down_tag: TagBase::AllreduceTreeDown.tag(salt),
            bytes_of,
            combine,
            unsplit: Some(unsplit),
            up,
            down,
        }
    }
}

impl<T, B, F, U> Schedule for TreeAllreduce<T, B, F, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
    U: FnOnce(Vec<T>) -> T,
{
    type Output = T;

    fn poll(&mut self) -> Result<Option<T>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        let TreeAllreduce {
            comm,
            up_tag,
            down_tag,
            bytes_of,
            combine,
            up,
            down,
            ..
        } = self;
        let climbed = up.poll(comm, *up_tag, bytes_of, combine, |seg| {
            down.relay(comm, *down_tag, bytes_of, seg);
        })?;
        if !(climbed && down.poll(comm, *down_tag, bytes_of)?) {
            return Ok(None);
        }
        let unsplit = self
            .unsplit
            .take()
            .expect("schedule polled past completion");
        Ok(Some(unsplit(std::mem::take(&mut self.down.received))))
    }
}

impl Comm {
    /// Broadcasts from `root`. The root passes `Some(value)`, every other
    /// rank passes `None`; all ranks return the value.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.start_bcast::<Blocking, _>(1, root, value, whole(), |_| std::mem::size_of::<T>())
    }

    /// Non-blocking [`bcast`](Self::bcast): every rank's request resolves
    /// to the broadcast value.
    pub fn ibcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> Request<T> {
        self.start_bcast::<Nonblocking, _>(1, root, value, whole(), |_| std::mem::size_of::<T>())
    }

    /// Broadcast of a vector, modeling `len · size_of::<T>()` wire bytes.
    pub fn bcast_vec<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
    ) -> Vec<T> {
        self.start_bcast::<Blocking, _>(1, root, value, whole(), vec_bytes)
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
        self.start_bcast::<Blocking, _>(segments, root, value, (split, unsplit), bytes_of)
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
        self.start_reduce::<Blocking, _>(1, root, value, whole(), bytes_of, combine)
    }

    /// Non-blocking [`reduce`](Self::reduce).
    pub fn ireduce<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        bytes_of: impl Fn(&T) -> usize + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<Option<T>> {
        self.start_reduce::<Nonblocking, _>(1, root, value, whole(), bytes_of, combine)
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
        self.start_reduce::<Blocking, _>(segments, root, value, (split, unsplit), bytes_of, combine)
    }
}

/// Wire bytes of a vector payload: `len · size_of::<T>()`.
#[allow(clippy::ptr_arg)] // passed where Fn(&Vec<T>) -> usize is expected
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.len() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::{vec_bytes as bytes_u64, whole};
    use crate::collectives::launch::Nonblocking;
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
    fn ibcast_overlaps_with_later_traffic() {
        // Initiate the broadcast, run an unrelated collective, then wait:
        // the request must still deliver the broadcast value.
        let outcome = Runtime::new(6).run(|comm| {
            let value = (comm.rank() == 1).then_some(comm.rank() as u64 + 41);
            let mut req = comm.ibcast(1, value);
            let plan = (AllreduceAlgorithm::RecursiveDoubling, 1);
            let sum = comm.allreduce_by(plan, 1u64, whole(), |_| 8, |a, b| a + b);
            (req.wait().unwrap(), sum)
        });
        assert_eq!(outcome.results, vec![(42, 6); 6]);
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
    fn ireduce_matches_blocking_reduce() {
        for p in [1usize, 2, 5, 8] {
            let outcome = Runtime::new(p).run(|comm| {
                let mut req = comm.ireduce(0, comm.rank() as u64 + 1, |_| 8, |a, b| a + b);
                req.wait().unwrap()
            });
            let expected = (p * (p + 1) / 2) as u64;
            for (rank, res) in outcome.results.into_iter().enumerate() {
                assert_eq!(res, (rank == 0).then_some(expected), "p={p} rank={rank}");
            }
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
    fn non_blocking_variants_match_blocking_results() {
        let p = 6;
        let outcome = Runtime::new(p).run(move |comm| {
            let segmentation = (split_vec_segments, unsplit_vec_segments);
            let mut bc = comm.start_bcast::<Nonblocking, _>(
                3,
                1,
                (comm.rank() == 1).then(|| vec![3u64; 12]),
                segmentation,
                bytes_u64,
            );
            let mut rd = comm.start_reduce::<Nonblocking, _>(
                3,
                2,
                vec![comm.rank() as u64; 12],
                segmentation,
                bytes_u64,
                add,
            );
            let mut ar = comm.iallreduce_by(
                (AllreduceAlgorithm::PipelinedTree, 3),
                vec![comm.rank() as u64 + 1; 12],
                segmentation,
                bytes_u64,
                add,
            );
            (bc.wait().unwrap(), rd.wait().unwrap(), ar.wait().unwrap())
        });
        let sum_ranks: u64 = (0..p as u64).sum();
        let sum_plus: u64 = (1..=p as u64).sum();
        for (r, (bc, rd, ar)) in outcome.results.iter().enumerate() {
            assert_eq!(bc, &vec![3u64; 12]);
            if r == 2 {
                assert_eq!(rd.as_ref().unwrap(), &vec![sum_ranks; 12]);
            } else {
                assert!(rd.is_none());
            }
            assert_eq!(ar, &vec![sum_plus; 12]);
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
