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
//! Each schedule is an `async fn` whose round counter is a plain `for`
//! loop: a round's send goes out as soon as the previous round's combine
//! lands, and its receive is the only suspension point. The allreduce is
//! the reduce-scatter awaited, then the allgather, then `unsplit`.

use super::launch::Blocking;
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;
use crate::request::recv;
use crate::stats::CallKind;

/// Rounds of the circulant schedules: `⌈log₂p⌉`.
fn circulant_rounds(p: usize) -> u32 {
    p.next_power_of_two().trailing_zeros()
}

/// Blocks moved in circulant round `k`: `min(2^{k+1}, p) − 2^k`.
fn circulant_count(p: usize, k: u32) -> usize {
    (1usize << (k + 1)).min(p) - (1usize << k)
}

/// Sends `blocks` to `dst` as one message.
fn ship<T: Send + 'static>(
    comm: &Comm,
    dst: usize,
    tag: Key,
    blocks: impl Iterator<Item = T>,
    bytes_of: impl Fn(&T) -> usize,
) {
    let mut bytes = 0;
    let payload: Vec<T> = blocks.inspect(|block| bytes += bytes_of(block)).collect();
    comm.send_key(dst, tag, payload, bytes);
}

/// Circulant reduce-scatter (Träff's non-power-of-two round structure;
/// see the module docs). Entering round `k` rank `r` holds partials of
/// the `min(2^{k+1}, p)` blocks `{(r+i) mod p}`, ships the upper half to
/// `(r + 2^k) mod p`, and folds the arrivals from `(r − 2^k) mod p` into
/// the lower half. After round `0` block `r` is fully combined at rank
/// `r` — every contribution having travelled exactly once.
///
/// # Panics
/// Panics unless `segments.len() == comm.size()`.
async fn reduce_scatter<T: Send + 'static>(
    comm: &Comm,
    segments: Vec<T>,
    seq: u64,
    bytes_of: &impl Fn(&T) -> usize,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<T, ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    assert_eq!(
        segments.len(),
        p,
        "the reduce-scatter needs exactly one segment per rank"
    );
    let tag = TagBase::ReduceScatter.key(seq);
    let mut slots: Vec<Option<T>> = segments.into_iter().map(Some).collect();
    for k in (0..circulant_rounds(p)).rev() {
        let stride = 1usize << k;
        let count = circulant_count(p, k);
        // The upper-half blocks leave the slot table for good: their
        // contributions now travel with the destination rank
        // (disjointness is what makes each arrive exactly once).
        let upper = (0..count).map(|i| {
            let block = slots[(r + stride + i) % p].take();
            block.expect("upper-half block is live")
        });
        ship(comm, (r + stride) % p, tag, upper, bytes_of);
        let incoming: Vec<T> = recv(comm, (r + p - stride) % p, tag).await?;
        debug_assert_eq!(incoming.len(), count);
        for (i, partial) in incoming.into_iter().enumerate() {
            let slot = &mut slots[(r + i) % p];
            let own = slot.take().expect("lower-half block is live");
            *slot = Some(combine(partial, own));
        }
    }
    Ok(slots[r].take().expect("own block is combined"))
}

/// Circulant (Bruck) allgather — the reduce-scatter rounds
/// time-reversed. Entering round `k` rank `r` holds blocks
/// `{(r+i) mod p : i < 2^k}`, sends clones of the first
/// `min(2^{k+1}, p) − 2^k` of them to `(r − 2^k) mod p` (unlike the
/// reduce-scatter it keeps what it forwards: every rank needs every
/// block), and receives the corresponding far blocks from
/// `(r + 2^k) mod p`.
async fn allgather<T: Clone + Send + 'static>(
    comm: &Comm,
    value: T,
    seq: u64,
    bytes_of: &impl Fn(&T) -> usize,
) -> Result<Vec<T>, ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    let tag = TagBase::Allgather.key(seq);
    let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
    slots[r] = Some(value);
    for k in 0..circulant_rounds(p) {
        let stride = 1usize << k;
        let held = (0..circulant_count(p, k)).map(|i| {
            let block = slots[(r + i) % p].as_ref();
            block.expect("held block is live").clone()
        });
        ship(comm, (r + p - stride) % p, tag, held, bytes_of);
        let incoming: Vec<T> = recv(comm, (r + stride) % p, tag).await?;
        debug_assert_eq!(incoming.len(), circulant_count(p, k));
        for (i, block) in incoming.into_iter().enumerate() {
            let slot = &mut slots[(r + stride + i) % p];
            debug_assert!(slot.is_none(), "each block arrives exactly once");
            *slot = Some(block);
        }
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every block present after q rounds"))
        .collect())
}

/// Allreduce as circulant reduce-scatter followed by circulant
/// allgather, plus the caller's local `split`/`unsplit`. The two phases
/// share the collective's call sequence; their distinct tag bases keep
/// them apart.
pub(crate) async fn allreduce_rsag<T: Clone + Send + 'static>(
    comm: Comm,
    value: T,
    seq: u64,
    (split, unsplit): (impl FnOnce(T, usize) -> Vec<T>, impl FnOnce(Vec<T>) -> T),
    bytes_of: impl Fn(&T) -> usize,
    combine: impl FnMut(T, T) -> T,
) -> Result<T, ShutdownError> {
    let own = reduce_scatter(&comm, split(value, comm.size()), seq, &bytes_of, combine).await?;
    let all = allgather(&comm, own, seq, &bytes_of).await?;
    Ok(unsplit(all))
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
        self.launch::<Blocking, _, _>(CallKind::Allgather, |_, seq| {
            allgather(self, value, seq, &bytes_of)
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
            algo,
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
