//! Reduce-scatter, allgather, and their composition into the
//! Rabenseifner-style bandwidth-optimal allreduce.
//!
//! The schedules are circulant (after Träff, *Optimal, Non-pipelined
//! Reduce-scatter and Allreduce Algorithms*): `q = ⌈log₂p⌉` rounds for
//! *any* p. In reduce-scatter round `k` (counting `q−1` down to `0`),
//! rank `r` ships its partials of the `min(2^{k+1}, p) − 2^k` blocks
//! `{(r + 2^k + i) mod p}` to rank `(r + 2^k) mod p` and combines the
//! matching blocks `{(r + i) mod p}` arriving from `(r − 2^k) mod p`;
//! summed over the rounds each rank ships its `p − 1` foreign blocks
//! exactly once, so a phase costs `q·α + (p−1)·β·s` — round-optimal at
//! every `p`, with no degradation off powers of two. The allgather is
//! the same round structure time-reversed (a Bruck dissemination).
//!
//! The composed allreduce moves `2(p−1)·n/p` bytes per rank — the
//! large-state winner under the α–β model versus the `≈ 2⌈log₂p⌉·n` of
//! whole-state schedules.
//!
//! The price is a correctness precondition: blocks combine in
//! power-of-two stride order, not rank order, so the operator **must be
//! commutative**, and the caller must be able to split its state into
//! `p` independently combinable segments
//! (`gv_core::split::SplittableState`). The selection policy in
//! [`super::select`] enforces both.
//!
//! Every schedule here is resumable: sends go out eagerly with the
//! previous round's combine, and the matching receive is the only
//! suspension point.

use super::launch::Blocking;
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;
use crate::request::Schedule;
use crate::stats::CallKind;

/// Rounds of the circulant schedules: `⌈log₂p⌉`.
fn circulant_rounds(p: usize) -> u32 {
    p.next_power_of_two().trailing_zeros()
}

/// Blocks moved in circulant round `k`: `min(2^{k+1}, p) − 2^k`.
fn circulant_count(p: usize, k: u32) -> usize {
    (1usize << (k + 1)).min(p) - (1usize << k)
}

/// Resumable circulant reduce-scatter (Träff's non-power-of-two round
/// structure; see the module docs). Rounds count `q−1` down to `0`;
/// entering round `k` rank `r` holds partials of the
/// `min(2^{k+1}, p)` blocks `{(r+i) mod p}`, ships the upper half to
/// `(r + 2^k) mod p`, and folds the arrivals from `(r − 2^k) mod p` into
/// the lower half. After round `0` block `r` is fully combined at rank
/// `r` — every contribution having travelled exactly once.
pub(crate) struct ReduceScatterCirculantSchedule<T, B, F> {
    comm: Comm,
    tag: Key,
    bytes_of: B,
    combine: F,
    slots: Vec<Option<T>>,
    /// The round whose arrivals we are waiting for (counts down).
    round: u32,
    finished: bool,
}

impl<T, B, F> ReduceScatterCirculantSchedule<T, B, F>
where
    T: Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    /// # Panics
    /// Panics unless `segments.len() == comm.size()`.
    pub(crate) fn new(comm: Comm, segments: Vec<T>, seq: u64, bytes_of: B, combine: F) -> Self {
        let p = comm.size();
        assert_eq!(
            segments.len(),
            p,
            "the reduce-scatter needs exactly one segment per rank"
        );
        let slots: Vec<Option<T>> = segments.into_iter().map(Some).collect();
        let mut schedule = ReduceScatterCirculantSchedule {
            comm,
            tag: TagBase::ReduceScatter.key(seq),
            bytes_of,
            combine,
            slots,
            round: 0,
            finished: p == 1,
        };
        if !schedule.finished {
            schedule.round = circulant_rounds(p) - 1;
            schedule.send_round(schedule.round);
        }
        schedule
    }

    /// Ships this rank's partials of round `k`'s upper-half blocks. The
    /// blocks leave the slot table for good: their contributions now
    /// travel with the destination rank (disjointness is what makes each
    /// contribution arrive exactly once).
    fn send_round(&mut self, k: u32) {
        let p = self.comm.size();
        let r = self.comm.rank();
        let stride = 1usize << k;
        let count = circulant_count(p, k);
        let mut payload = Vec::with_capacity(count);
        let mut bytes = 0;
        for i in 0..count {
            let block = (r + stride + i) % p;
            let partial = self.slots[block].take().expect("upper-half block is live");
            bytes += (self.bytes_of)(&partial);
            payload.push(partial);
        }
        self.comm
            .send_key((r + stride) % p, self.tag, payload, bytes);
    }

    fn poll_rounds(&mut self) -> Result<bool, ShutdownError> {
        let p = self.comm.size();
        let r = self.comm.rank();
        while !self.finished {
            let k = self.round;
            let stride = 1usize << k;
            let src = (r + p - stride) % p;
            let Some(incoming) = self.comm.try_recv_schedule::<Vec<T>>(src, self.tag)? else {
                return Ok(false);
            };
            debug_assert_eq!(incoming.len(), circulant_count(p, k));
            for (i, partial) in incoming.into_iter().enumerate() {
                let block = (r + i) % p;
                let own = self.slots[block].take().expect("lower-half block is live");
                self.slots[block] = Some((self.combine)(partial, own));
            }
            if k == 0 {
                self.finished = true;
            } else {
                self.round = k - 1;
                self.send_round(self.round);
            }
        }
        Ok(true)
    }
}

impl<T, B, F> Schedule for ReduceScatterCirculantSchedule<T, B, F>
where
    T: Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    type Output = T;

    fn poll(&mut self) -> Result<Option<T>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        if !self.poll_rounds()? {
            return Ok(None);
        }
        let r = self.comm.rank();
        Ok(Some(
            self.slots[r].take().expect("result ready exactly once"),
        ))
    }
}

/// Resumable circulant (Bruck) allgather — the reduce-scatter rounds
/// time-reversed. Rounds count `0` up to `q−1`; entering round `k` rank
/// `r` holds blocks `{(r+i) mod p : i < 2^k}`, sends the first
/// `min(2^{k+1}, p) − 2^k` of them to `(r − 2^k) mod p`, and receives
/// the corresponding far blocks from `(r + 2^k) mod p`.
pub(crate) struct AllgatherCirculantSchedule<T, B> {
    comm: Comm,
    tag: Key,
    bytes_of: B,
    slots: Vec<Option<T>>,
    /// The round whose arrivals we are waiting for (counts up).
    round: u32,
}

impl<T, B> AllgatherCirculantSchedule<T, B>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
{
    pub(crate) fn new(comm: Comm, value: T, seq: u64, bytes_of: B) -> Self {
        let p = comm.size();
        let r = comm.rank();
        let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
        slots[r] = Some(value);
        let schedule = AllgatherCirculantSchedule {
            comm,
            tag: TagBase::Allgather.key(seq),
            bytes_of,
            slots,
            round: 0,
        };
        if p > 1 {
            schedule.send_round(0);
        }
        schedule
    }

    /// Ships clones of round `k`'s blocks (unlike the reduce-scatter this
    /// rank keeps what it forwards — every rank needs every block).
    fn send_round(&self, k: u32) {
        let p = self.comm.size();
        let r = self.comm.rank();
        let stride = 1usize << k;
        let count = circulant_count(p, k);
        let mut payload = Vec::with_capacity(count);
        let mut bytes = 0;
        for i in 0..count {
            let block = self.slots[(r + i) % p]
                .as_ref()
                .expect("held block is live");
            bytes += (self.bytes_of)(block);
            payload.push(block.clone());
        }
        self.comm
            .send_key((r + p - stride) % p, self.tag, payload, bytes);
    }
}

impl<T, B> Schedule for AllgatherCirculantSchedule<T, B>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
{
    type Output = Vec<T>;

    fn poll(&mut self) -> Result<Option<Vec<T>>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        let p = self.comm.size();
        let r = self.comm.rank();
        let q = circulant_rounds(p);
        while self.round < q {
            let k = self.round;
            let stride = 1usize << k;
            let src = (r + stride) % p;
            let Some(incoming) = self.comm.try_recv_schedule::<Vec<T>>(src, self.tag)? else {
                return Ok(None);
            };
            debug_assert_eq!(incoming.len(), circulant_count(p, k));
            for (i, block) in incoming.into_iter().enumerate() {
                let slot = &mut self.slots[(r + stride + i) % p];
                debug_assert!(slot.is_none(), "each block arrives exactly once");
                *slot = Some(block);
            }
            self.round += 1;
            if self.round < q {
                self.send_round(self.round);
            }
        }
        Ok(Some(
            self.slots
                .iter_mut()
                .map(|slot| slot.take().expect("every block present after q rounds"))
                .collect(),
        ))
    }
}

enum RsagPhase<T, B, F> {
    ReduceScatter(ReduceScatterCirculantSchedule<T, B, F>),
    Allgather(AllgatherCirculantSchedule<T, B>),
}

/// Allreduce as circulant reduce-scatter followed by circulant
/// allgather, plus the caller's local `split`/`unsplit`. The two phases
/// share the collective's call sequence; their distinct tag bases keep
/// them apart.
pub(crate) struct AllreduceRsagSchedule<T, B, F, U> {
    comm: Comm,
    seq: u64,
    bytes_of: B,
    unsplit: Option<U>,
    phase: RsagPhase<T, B, F>,
}

impl<T, B, F, U> AllreduceRsagSchedule<T, B, F, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize + Clone,
    F: FnMut(T, T) -> T,
    U: FnOnce(Vec<T>) -> T,
{
    pub(crate) fn new(
        comm: Comm,
        value: T,
        seq: u64,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: U,
        bytes_of: B,
        combine: F,
    ) -> Self {
        let phase = RsagPhase::ReduceScatter(ReduceScatterCirculantSchedule::new(
            comm.clone_handle(),
            split(value, comm.size()),
            seq,
            bytes_of.clone(),
            combine,
        ));
        AllreduceRsagSchedule {
            comm,
            seq,
            bytes_of,
            unsplit: Some(unsplit),
            phase,
        }
    }
}

impl<T, B, F, U> Schedule for AllreduceRsagSchedule<T, B, F, U>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize + Clone,
    F: FnMut(T, T) -> T,
    U: FnOnce(Vec<T>) -> T,
{
    type Output = T;

    fn poll(&mut self) -> Result<Option<T>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        if let RsagPhase::ReduceScatter(rs) = &mut self.phase {
            let Some(own) = rs.poll()? else {
                return Ok(None);
            };
            self.phase = RsagPhase::Allgather(AllgatherCirculantSchedule::new(
                self.comm.clone_handle(),
                own,
                self.seq,
                self.bytes_of.clone(),
            ));
        }
        let RsagPhase::Allgather(ag) = &mut self.phase else {
            unreachable!("the reduce-scatter phase was replaced above")
        };
        let Some(all) = ag.poll()? else {
            return Ok(None);
        };
        let unsplit = self.unsplit.take().expect("unsplit runs exactly once");
        Ok(Some(unsplit(all)))
    }
}

impl Comm {
    /// Gathers one value per rank and delivers the full rank-ordered
    /// vector to every rank by the circulant allgather: `⌈log₂p⌉` rounds
    /// at any `p`, each value `bytes_of(value)` bytes on the wire.
    pub fn allgather<T: Clone + Send + 'static>(
        &self,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
    ) -> Vec<T> {
        self.launch::<Blocking, _>(CallKind::Allgather, |comm, seq| {
            AllgatherCirculantSchedule::new(comm, value, seq, bytes_of)
        })
    }
}

#[cfg(test)]
mod tests {
    use gv_core::split::{split_vec_segments, unsplit_vec_segments};

    use crate::comm::Comm;
    use crate::cost::AllreduceAlgorithm;
    use crate::runtime::Runtime;
    use crate::stats::CallKind;

    fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }

    #[allow(clippy::ptr_arg)] // passed where Fn(&Vec<u64>) -> usize is expected
    fn wire(v: &Vec<u64>) -> usize {
        v.len() * 8
    }

    /// An allreduce of `state` forced onto `algo`.
    fn forced(comm: &Comm, algo: AllreduceAlgorithm, state: Vec<u64>) -> Vec<u64> {
        comm.allreduce_by(
            (algo, 1),
            state,
            (split_vec_segments, unsplit_vec_segments),
            wire,
            add,
        )
    }

    #[test]
    fn allreduce_reduce_scatter_matches_whole_state_schedules() {
        for p in [1usize, 2, 3, 5, 8, 9, 16] {
            let outcome = Runtime::new(p).run(move |comm| {
                let r = comm.rank() as u64;
                let mine: Vec<u64> = (0..13).map(|i| r * 1000 + i).collect();
                let rs = forced(
                    comm,
                    AllreduceAlgorithm::ReduceScatterAllgather,
                    mine.clone(),
                );
                let reference = forced(comm, AllreduceAlgorithm::ReduceBroadcast, mine);
                (rs, reference)
            });
            for (rank, (rs, reference)) in outcome.results.into_iter().enumerate() {
                assert_eq!(rs, reference, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn composed_allreduce_counts_one_allreduce_call_per_rank() {
        let outcome = Runtime::new(4).run(|comm| {
            forced(
                comm,
                AllreduceAlgorithm::ReduceScatterAllgather,
                vec![1u64; 16],
            );
        });
        assert_eq!(outcome.stats.calls(CallKind::Allreduce), 4);
        assert_eq!(outcome.stats.calls(CallKind::Allgather), 0);
    }

    #[test]
    fn rsag_allreduce_is_cheaper_than_reduce_bcast_for_large_states() {
        // 64 KiB state at p = 8: bandwidth dominates, segments are 8 KiB.
        let time = |algo: AllreduceAlgorithm| {
            Runtime::new(8)
                .run(move |comm| {
                    forced(comm, algo, vec![0u64; 8 << 10]); // 64 KiB
                })
                .modeled_seconds
        };
        let t_rsag = time(AllreduceAlgorithm::ReduceScatterAllgather);
        let t_rb = time(AllreduceAlgorithm::ReduceBroadcast);
        assert!(t_rsag < t_rb, "rsag={t_rsag} reduce+bcast={t_rb}");
    }

    #[test]
    fn allgather_delivers_everywhere() {
        let outcome = Runtime::new(6).run(|comm| comm.allgather(comm.rank() as i32 - 3, |_| 4));
        let expected: Vec<i32> = (0..6).map(|r| r - 3).collect();
        for res in outcome.results {
            assert_eq!(res, expected);
        }
    }

    #[test]
    fn allgather_counts_one_collective_call_per_rank() {
        let outcome = Runtime::new(4).run(|comm| {
            comm.allgather(comm.rank(), |_| 8);
        });
        assert_eq!(outcome.stats.calls(CallKind::Allgather), 4);
        assert_eq!(outcome.stats.calls(CallKind::Bcast), 0);
    }
}
