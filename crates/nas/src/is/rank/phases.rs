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
    /// Every other rank's span of the histogram copied, behind a kind
    /// word, into the piece bound for it (sparse fallback: the sorted copy
    /// cut at the spans).
    Expand,
    /// The `alltoallv` of the pieces.
    Exchange,
    /// Received spans added into the own span of the histogram, received
    /// keys counted into it (sparse fallback: spans expanded, keys joined).
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

/// The kind word that leads a piece whose body is the sender's histogram
/// over the receiver's span.
const COUNTS: u32 = 0;
/// The kind word that leads a piece whose body is the sender's keys in
/// the receiver's span, sorted.
const KEYS: u32 = 1;

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

/// Fails rank `r`'s run: a sum of counts passed `u32::MAX`.
#[cold]
fn summed_count_overflows(r: usize) -> ! {
    panic!("rank {r}: a summed count overflows a u32")
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

/// Adds `span`, another rank's histogram over the values `table` counts,
/// into `table`, failing rank `r` if an entry passes `u32::MAX`.
pub(super) fn add_span(table: &mut [u32], span: &[u32], r: usize) {
    debug_assert_eq!(table.len(), span.len());
    let mut overflowed = false;
    for (count, &more) in table.iter_mut().zip(span) {
        let (sum, carry) = count.overflowing_add(more);
        *count = sum;
        overflowed |= carry;
    }
    if overflowed {
        summed_count_overflows(r);
    }
}

/// `body` behind its kind word, allocated at its final length.
fn piece(kind: u32, body: &[u32]) -> Vec<u32> {
    let mut piece = output_vec(1 + body.len());
    piece.push(kind);
    piece.extend_from_slice(body);
    piece
}

/// How many keys a histogram stands for.
fn keys_in(counts: &[u32]) -> usize {
    counts.iter().map(|&c| c as usize).sum()
}

/// Appends the sorted keys that `counts`, a histogram over `values`,
/// stands for. Each value is written as a fixed run of `RUN` keys into a
/// stage that stays in L1, and the stage advances by the value's count,
/// so the next run overwrites the surplus; a full stage goes to `sorted`
/// in one copy.
fn emit(sorted: &mut Vec<u32>, counts: &[u32], values: Range<usize>) {
    const RUN: usize = 16;
    const STAGE: usize = 4096;
    let mut stage = [0u32; STAGE + RUN];
    let mut filled = 0;
    for (value, &count) in values.zip(counts) {
        let mut left = count as usize;
        while left > 0 {
            stage[filled..filled + RUN].fill(value as u32);
            let step = left.min(RUN);
            filled += step;
            left -= step;
            if filled >= STAGE {
                sorted.extend_from_slice(&stage[..filled]);
                filled = 0;
            }
        }
    }
    sorted.extend_from_slice(&stage[..filled]);
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
/// Where the rank counts, it reads each local key once and writes each
/// key of its block once; what it sends is one count per foreign value,
/// not the keys behind it. The histogram is `4 · max_key ≤ 4 ·
/// MAX_SPAN_PER_KEY · keys.len()` bytes.
pub(super) fn sort_block(
    comm: &Comm,
    keys: &[u32],
    max_key: u32,
    mut lap: impl FnMut(Phase),
) -> (Vec<u32>, u64) {
    let (p, r) = (comm.size(), comm.rank());
    let own = owned_by(max_key, p, r);
    // A piece is a kind word and a body: the sender's counts over the
    // receiver's span, or its keys in that span in sorted order. The
    // histogram has to exist before the exchange, so the local key count
    // stands in for the received one (IS deals every rank the same share).
    // Ranks may decide differently, and each receiver takes either kind.
    let (outgoing, counts) = if max_key as usize <= MAX_SPAN_PER_KEY * keys.len() {
        let counts = histogram(keys, max_key, r);
        lap(Phase::Histogram);
        let outgoing: Vec<Vec<u32>> = (0..p)
            .map(|q| {
                if q == r {
                    Vec::new()
                } else {
                    piece(COUNTS, &counts[owned_by(max_key, p, q)])
                }
            })
            .collect();
        // One count per key, one copy of every foreign entry.
        comm.advance((keys.len() + (max_key as usize - own.len())) as u64);
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
                let (keys, tail) = rest.split_at(rest.partition_point(|&k| (k as usize) < end));
                rest = tail;
                piece(KEYS, keys)
            })
            .collect();
        (outgoing, None)
    };
    lap(Phase::Expand);

    let incoming = comm.alltoallv(outgoing);
    lap(Phase::Exchange);

    // A counting rank's own piece is empty: its counts are in the table.
    let pieces = || incoming.iter().filter_map(|piece| piece.split_first());
    let sorted = match counts {
        Some(mut counts) => {
            let table = &mut counts[own.clone()];
            let mut received = 0;
            for (&kind, body) in pieces() {
                if kind == COUNTS {
                    add_span(table, body, r);
                } else {
                    for &k in body {
                        let count = &mut table[k as usize - own.start];
                        *count = count
                            .checked_add(1)
                            .unwrap_or_else(|| summed_count_overflows(r));
                    }
                }
                received += body.len();
            }
            lap(Phase::Count);
            let mut sorted = output_vec(keys_in(table));
            emit(&mut sorted, table, own.clone());
            // One add per received entry or count per received key, one
            // write per key, one sweep of the table.
            comm.advance((received + sorted.len() + own.len()) as u64);
            sorted
        }
        None => {
            let total = pieces()
                .map(|(&kind, body)| {
                    if kind == COUNTS {
                        keys_in(body)
                    } else {
                        body.len()
                    }
                })
                .sum();
            let mut mine = output_vec(total);
            let mut swept = 0;
            for (&kind, body) in pieces() {
                if kind == COUNTS {
                    emit(&mut mine, body, own.clone());
                    swept += body.len();
                } else {
                    mine.extend_from_slice(body);
                }
            }
            lap(Phase::Count);
            mine.sort_unstable();
            // One sweep of each received span, then the comparison sort.
            comm.advance(swept as u64 + comparison_sort_ops(mine.len()));
            mine
        }
    };
    lap(Phase::Emit);

    let n = sorted.len() as u64;
    let global_offset = local_xscan(comm, || 0u64, n, |a, b| a + b);
    lap(Phase::OffsetScan);
    (sorted, global_offset)
}
