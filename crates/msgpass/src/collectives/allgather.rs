//! The circulant allgather (after Träff, *Optimal, Non-pipelined
//! Reduce-scatter and Allreduce Algorithms*, run time-reversed, a Bruck
//! dissemination): `q = ⌈log₂p⌉` rounds for *any* p. In round `k` rank
//! `r` sends the `min(2^{k+1}, p) − 2^k` blocks it holds first to
//! `(r − 2^k) mod p` and receives the far ones from `(r + 2^k) mod p`, so
//! each rank receives its `p − 1` foreign blocks exactly once. It backs
//! [`Comm::allgather`], which `Comm::split` and `gather_to_all` call.
//!
//! The schedule is an `async fn` whose round counter is a plain `for`
//! loop; its receive is the only suspension point.

use super::launch::Blocking;
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;
use crate::request::recv;
use crate::stats::CallKind;

/// Rounds of the circulant schedule: `⌈log₂p⌉`.
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

/// Circulant (Bruck) allgather. Entering round `k` rank `r` holds blocks
/// `{(r+i) mod p : i < 2^k}`, sends clones of the first
/// `min(2^{k+1}, p) − 2^k` of them to `(r − 2^k) mod p` (it keeps what it
/// forwards: every rank needs every block), and receives the
/// corresponding far blocks from `(r + 2^k) mod p`.
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
    use crate::runtime::Runtime;
    use crate::stats::CallKind;

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
