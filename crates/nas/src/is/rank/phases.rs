//! The five phases of the NAS IS ranking, in the order one rank runs
//! them: bucket, exchange, count, emit, offset scan.
//!
//! Nothing here is public. The file is compiled twice — as the private
//! body of `distributed_sort`, and by `#[path]` into the `nas_is`
//! harness, whose `--wall` table times each phase on the host clock
//! through `sort_block`'s `lap` hook — so it names no `crate::` path.

use std::ops::Range;

use gv_core::kernel::count_into;
use gv_core::mem::output_vec;
use gv_msgpass::localview::local_xscan;
use gv_msgpass::Comm;

/// What [`sort_block`] has just finished when it calls `lap`.
#[derive(Debug, Clone, Copy)]
pub(super) enum Phase {
    /// Own-span keys counted where they lie, the rest copied once into
    /// exact-capacity outgoing vectors.
    Bucket,
    /// The `alltoallv` of the outgoing vectors.
    Exchange,
    /// Received pieces counted into the table (sparse fallback: joined).
    Count,
    /// The table expanded into the sorted block (sparse fallback: sorted).
    Emit,
    /// The exclusive scan of block lengths.
    OffsetScan,
}

/// A rank counts its keys while its value span is at most this many
/// table entries per local key, and sorts them by comparison beyond
/// that. Uniform keys are the table's worst case; with them, on the host
/// EXPERIMENTS.md (TXT-ISRANK) describes, counting wins through 2 entries
/// per key for n ≤ 2²⁰, loses from 4 on, and is level at 1 for n = 2²².
/// Every NAS class sits at 1/16.
pub(super) const MAX_SPAN_PER_KEY: usize = 2;

/// Keys the bucket pass looks at between two flushes of its stack stages.
const STAGE: usize = 1024;

/// `k / d` for a `d` fixed outside the loop, by one widening multiply:
/// `⌊k · ⌈2⁶⁴/d⌉ / 2⁶⁴⌋ = ⌊k / d⌋` for every `u32` `k` and every `d ≥ 2`
/// (Lemire, Kaser & Kurz, *Faster remainder by direct computation*, 2019).
/// For `d = 1` the constant would be 2⁶⁴; it wraps to 0, which no other
/// divisor produces, and `k` is its own quotient.
#[derive(Debug, Clone, Copy)]
pub(super) struct Divisor(u64);

impl Divisor {
    pub(super) fn new(d: u32) -> Self {
        assert!(d > 0, "division by zero");
        Divisor((u64::MAX / u64::from(d)).wrapping_add(1))
    }

    #[inline]
    pub(super) fn quotient(self, k: u32) -> u32 {
        if self.0 == 0 {
            k
        } else {
            ((u128::from(self.0) * u128::from(k)) >> 64) as u32
        }
    }
}

/// The cut of `0..max_key` into one value span per rank: rank `r` owns
/// `r·span .. (r+1)·span` clipped to `max_key`, with `span = ⌈max_key/p⌉`.
/// The last owning rank's span is therefore the remainder, and ranks past
/// it own nothing (all of them but the first `max_key` when
/// `max_key < p`; every rank when `max_key` is 0).
#[derive(Debug, Clone, Copy)]
struct Spans {
    span: u32,
    max_key: u32,
    by_span: Divisor,
}

impl Spans {
    fn new(max_key: u32, p: usize) -> Self {
        // At least 1, so that an empty range still has a divisor.
        let span = u64::from(max_key).div_ceil(p as u64).max(1) as u32;
        Spans {
            span,
            max_key,
            by_span: Divisor::new(span),
        }
    }

    fn owned_by(&self, r: usize) -> Range<u32> {
        let clipped = |bound: u64| {
            bound
                .saturating_mul(u64::from(self.span))
                .min(u64::from(self.max_key)) as u32
        };
        clipped(r as u64)..clipped(r as u64 + 1)
    }

    /// The rank that owns `k`; below `p` for every `k < max_key`.
    #[inline]
    fn owner(&self, k: u32) -> usize {
        self.by_span.quotient(k) as usize
    }
}

/// Counts the keys of rank `r`'s own span into `table` (one entry per
/// value of the span) where they lie, and copies every other key once,
/// into the vector bound for its owner — allocated at its final size from
/// a first counting pass, which also checks the input contract. With an
/// empty `table` (the sparse fallback) the own keys travel through
/// `outgoing[r]` like the rest.
fn bucket(keys: &[u32], spans: &Spans, p: usize, r: usize, table: &mut [u64]) -> Vec<Vec<u32>> {
    let max_key = spans.max_key;
    let mut sizes = vec![0u64; p];
    count_into(&mut sizes, keys, |&k| {
        assert!(
            k < max_key,
            "rank {r}: key {k} is outside the documented range 0..{max_key}"
        );
        spans.owner(k)
    });
    if !table.is_empty() {
        sizes[r] = 0;
    }
    let mut outgoing: Vec<Vec<u32>> = sizes
        .iter()
        .map(|&n| Vec::with_capacity(n as usize))
        .collect();

    let lo = spans.owned_by(r).start;
    let counted = table.len() as u32;
    let mut mine = [0u32; STAGE];
    let mut theirs = [0u32; STAGE];
    for chunk in keys.chunks(STAGE) {
        // Which side a key falls on is a 1-in-p coin the branch predictor
        // cannot call, so both stages take every key and only the cursor
        // of the side it belongs to moves.
        let (mut m, mut t) = (0, 0);
        for &k in chunk {
            let own = k.wrapping_sub(lo) < counted;
            mine[m] = k;
            m += usize::from(own);
            theirs[t] = k;
            t += usize::from(!own);
        }
        // Not `count_into`: on a table of ≤ 2048 entries it would allocate
        // and fold three scratch tables per stage.
        for &k in &mine[..m] {
            table[(k - lo) as usize] += 1;
        }
        for &k in &theirs[..t] {
            outgoing[spans.owner(k)].push(k);
        }
    }
    outgoing
}

/// The sorted block a count table over `own` stands for, `n` keys long.
fn emit(table: &[u64], own: Range<u32>, n: usize) -> Vec<u32> {
    let mut sorted = output_vec(n);
    for (value, &count) in own.zip(table) {
        sorted.extend(std::iter::repeat_n(value, count as usize));
    }
    sorted
}

/// One rank's part of the distributed sort of `keys` (each in
/// `0..max_key`): its block of the sorted sequence and the global index
/// of the block's first key. `lap` is called as each [`Phase`] ends.
///
/// Each key is moved at most once before the exchange (none of this
/// rank's own) and written once after it; the table is
/// `8 · ⌈max_key/p⌉ ≤ 8 · MAX_SPAN_PER_KEY · keys.len()` bytes.
pub(super) fn sort_block(
    comm: &Comm,
    keys: &[u32],
    max_key: u32,
    mut lap: impl FnMut(Phase),
) -> (Vec<u32>, u64) {
    let (p, r) = (comm.size(), comm.rank());
    let spans = Spans::new(max_key, p);
    let own = spans.owned_by(r);
    // The table has to exist before the exchange for the own keys to be
    // counted where they lie, so the local count stands in for the
    // received one (IS deals every rank the same share). Ranks may decide
    // differently: the messages are the same either way.
    let mut table = (own.len() <= MAX_SPAN_PER_KEY * keys.len()).then(|| vec![0u64; own.len()]);

    let outgoing = bucket(keys, &spans, p, r, table.as_deref_mut().unwrap_or_default());
    let kept = keys.len() - outgoing.iter().map(Vec::len).sum::<usize>();
    comm.advance(keys.len() as u64);
    lap(Phase::Bucket);

    let incoming = comm.alltoallv(outgoing);
    let n = kept + incoming.iter().map(Vec::len).sum::<usize>();
    lap(Phase::Exchange);

    let sorted = match table {
        Some(mut table) => {
            for piece in &incoming {
                count_into(&mut table, piece, |&k| k.wrapping_sub(own.start) as usize);
            }
            lap(Phase::Count);
            let sorted = emit(&table, own, n);
            // One count and one write per key, one sweep of the table.
            comm.advance(2 * n as u64 + table.len() as u64);
            sorted
        }
        None => {
            let mut mine = incoming.concat();
            lap(Phase::Count);
            mine.sort_unstable();
            // n log n comparison-sort cost on the virtual clock.
            let logn = usize::BITS - n.max(2).leading_zeros();
            comm.advance(n as u64 * u64::from(logn));
            mine
        }
    };
    lap(Phase::Emit);

    let global_offset = local_xscan(comm, || 0u64, n as u64, |a, b| a + b);
    lap(Phase::OffsetScan);
    (sorted, global_offset)
}
