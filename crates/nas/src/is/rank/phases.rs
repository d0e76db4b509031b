//! The six phases of the NAS IS ranking, in the order one rank runs
//! them: histogram, expand, exchange, count, emit, offset scan.
//!
//! Nothing here is public. The file is compiled twice — as the private
//! body of `distributed_sort`, and by `#[path]` into the `nas_is`
//! harness, whose `--wall` table times each phase on the host clock
//! through `sort_block`'s `lap` hook — so it names no `crate::` path.

use std::ops::Range;

use gv_core::mem::output_vec;
use gv_msgpass::localview::local_xscan;
use gv_msgpass::Comm;

/// What [`sort_block`] has just finished when it calls `lap`.
#[derive(Debug, Clone, Copy)]
pub(super) enum Phase {
    /// The local keys counted into a histogram over `0..max_key` (sparse
    /// fallback: a sorted copy of them).
    Histogram,
    /// Every other rank's span of the histogram expanded into the vector
    /// bound for it (sparse fallback: the sorted copy cut at the spans).
    Expand,
    /// The `alltoallv` of the outgoing vectors.
    Exchange,
    /// Received pieces counted into the own span of the histogram (sparse
    /// fallback: joined).
    Count,
    /// The own span expanded into the sorted block (sparse fallback: sorted).
    Emit,
    /// The exclusive scan of block lengths.
    OffsetScan,
}

/// A rank counts its keys while the key range is at most this many
/// histogram entries per local key, and sorts them by comparison beyond
/// that. Uniform keys are the histogram's worst case; with them, on the
/// host EXPERIMENTS.md (TXT-ISRANK) describes, counting wins through 2
/// entries per key for n ≤ 2²⁰, loses from 4 on, and is level at 1 for
/// n = 2²². Every NAS class sits at p/16, so it counts through p = 32.
pub(super) const MAX_SPAN_PER_KEY: usize = 2;

/// Rank `q`'s value span: `q·s .. (q+1)·s` clipped to `max_key`, with
/// `s = ⌈max_key/p⌉`. The last owning rank's span is therefore the
/// remainder, and ranks past it own nothing (all of them but the first
/// `max_key` when `max_key < p`; every rank when `max_key` is 0).
fn owned_by(max_key: u32, p: usize, q: usize) -> Range<usize> {
    let span = (max_key as usize).div_ceil(p);
    let clipped = |bound: usize| bound.saturating_mul(span).min(max_key as usize);
    clipped(q)..clipped(q + 1)
}

/// No count of `n` keys passes `u32::MAX`.
fn check_countable(n: usize, r: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "rank {r}: {n} keys overflow a u32 count"
    );
}

/// How many of `keys` hold each value of `0..max_key`; the lookup is the
/// input contract's check.
fn histogram(keys: &[u32], max_key: u32, r: usize) -> Vec<u32> {
    check_countable(keys.len(), r);
    let mut counts = vec![0u32; max_key as usize];
    for &k in keys {
        let Some(count) = counts.get_mut(k as usize) else {
            panic!("rank {r}: key {k} is outside the documented range 0..{max_key}");
        };
        *count += 1;
    }
    counts
}

/// The sorted keys that `counts`, a histogram over `values`, stands for.
fn emit(counts: &[u32], values: Range<usize>) -> Vec<u32> {
    let mut sorted = output_vec(counts.iter().map(|&c| c as usize).sum());
    for (value, &count) in values.zip(counts) {
        sorted.extend(std::iter::repeat_n(value as u32, count as usize));
    }
    sorted
}

/// What the virtual clock charges a comparison sort of `n` keys: `n`
/// times the bit length of `n` (at least 2).
fn comparison_sort_ops(n: usize) -> u64 {
    n as u64 * u64::from(usize::BITS - n.max(2).leading_zeros())
}

/// One rank's part of the distributed sort of `keys` (each in
/// `0..max_key`): its block of the sorted sequence and the global index
/// of the block's first key. `lap` is called as each [`Phase`] ends.
///
/// Where the rank counts, each key is read once before the exchange and
/// written at most once (none of this rank's own), and written once after
/// it; the histogram is `4 · max_key ≤ 4 · MAX_SPAN_PER_KEY · keys.len()`
/// bytes.
pub(super) fn sort_block(
    comm: &Comm,
    keys: &[u32],
    max_key: u32,
    mut lap: impl FnMut(Phase),
) -> (Vec<u32>, u64) {
    let (p, r) = (comm.size(), comm.rank());
    let own = owned_by(max_key, p, r);
    // Every piece a rank sends is a contiguous slice of its keys in sorted
    // order: of the histogram expanded, or of a sorted copy. The histogram
    // has to exist before the exchange, so the local key count stands in
    // for the received one (IS deals every rank the same share). Ranks may
    // decide differently: the messages are the same either way.
    let (outgoing, counts) = if max_key as usize <= MAX_SPAN_PER_KEY * keys.len() {
        let counts = histogram(keys, max_key, r);
        lap(Phase::Histogram);
        let outgoing: Vec<Vec<u32>> = (0..p)
            .map(|q| {
                let span = owned_by(max_key, p, q);
                if q == r {
                    Vec::new()
                } else {
                    emit(&counts[span.clone()], span)
                }
            })
            .collect();
        let sent: usize = outgoing.iter().map(Vec::len).sum();
        // One count per key, one sweep of the foreign entries, one write
        // per foreign key.
        comm.advance((keys.len() + (max_key as usize - own.len()) + sent) as u64);
        (outgoing, Some(counts))
    } else {
        let mut mine = keys.to_vec();
        mine.sort_unstable();
        if let Some(&k) = mine.last() {
            assert!(
                k < max_key,
                "rank {r}: key {k} is outside the documented range 0..{max_key}"
            );
        }
        comm.advance(comparison_sort_ops(mine.len()));
        lap(Phase::Histogram);
        let mut rest = mine.as_slice();
        let outgoing = (0..p)
            .map(|q| {
                let end = owned_by(max_key, p, q).end;
                let (piece, tail) = rest.split_at(rest.partition_point(|&k| (k as usize) < end));
                rest = tail;
                piece.to_vec()
            })
            .collect();
        (outgoing, None)
    };
    lap(Phase::Expand);

    let incoming = comm.alltoallv(outgoing);
    lap(Phase::Exchange);

    let sorted = match counts {
        Some(mut counts) => {
            let received: usize = incoming.iter().map(Vec::len).sum();
            check_countable(keys.len() + received, r);
            let table = &mut counts[own.clone()];
            for piece in &incoming {
                for &k in piece {
                    table[k as usize - own.start] += 1;
                }
            }
            lap(Phase::Count);
            let sorted = emit(table, own.clone());
            // One count and one write per key, one sweep of the table.
            comm.advance((2 * sorted.len() + own.len()) as u64);
            sorted
        }
        None => {
            let mut mine = incoming.concat();
            lap(Phase::Count);
            mine.sort_unstable();
            comm.advance(comparison_sort_ops(mine.len()));
            mine
        }
    };
    lap(Phase::Emit);

    let n = sorted.len() as u64;
    let global_offset = local_xscan(comm, || 0u64, n, |a, b| a + b);
    lap(Phase::OffsetScan);
    (sorted, global_offset)
}
