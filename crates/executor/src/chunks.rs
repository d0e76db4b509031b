//! Chunk partitioning: one contiguous block per virtual processor.
//!
//! The global-view engines assign each virtual processor `q` a contiguous
//! block of the input, matching the paper's `in_q(0) .. in_q(n-1)` notation.
//! Blocks are balanced to within one element: the first `len % parts` blocks
//! get one extra element. Empty blocks occur only when `parts > len`, which
//! the engines must (and do) tolerate — the paper's Listings guard the
//! `pre_accum`/`post_accum` calls with `if n > 0` for exactly this reason.

use std::ops::Range;

use crate::pool::Pool;

/// Splits `0..len` into `parts` balanced, contiguous, in-order ranges.
///
/// Always yields exactly `parts` ranges (some possibly empty).
///
/// # Panics
/// Panics if `parts` is zero.
pub fn chunk_ranges(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    assert!(parts >= 1, "cannot split into zero chunks");
    let base = len / parts;
    let extra = len % parts;
    let mut start = 0usize;
    (0..parts).map(move |i| {
        let size = base + usize::from(i < extra);
        let range = start..start + size;
        start += size;
        range
    })
}

/// Runs `f(chunk_index, chunk)` on each of `parts` balanced chunks of
/// `data`, in parallel on `pool`, and returns the results in chunk order.
///
/// The chunk decomposition is deterministic — results are identical for any
/// pool size, including a single-threaded pool.
pub fn par_map_chunks<T, R, F>(pool: &Pool, data: &[T], parts: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(parts >= 1, "cannot split into zero chunks");
    let mut out: Vec<Option<R>> = Vec::with_capacity(parts);
    out.resize_with(parts, || None);
    pool.scope(|s| {
        for (chunk_index, (slot, range)) in out
            .iter_mut()
            .zip(chunk_ranges(data.len(), parts))
            .enumerate()
        {
            let f = &f;
            let chunk = &data[range];
            if chunk.is_empty() {
                // `parts > len` leaves trailing empty chunks: they must
                // still produce a state (the engines fold `ident()` out
                // of them so `tree_combine` stays order-correct), but a
                // pool round-trip for a no-input closure is pure
                // overhead — run them inline.
                *slot = Some(f(chunk_index, chunk));
                continue;
            }
            s.spawn(move || {
                *slot = Some(f(chunk_index, chunk));
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("chunk job did not produce a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 7, 100, 150] {
                let ranges: Vec<_> = chunk_ranges(len, parts).collect();
                assert_eq!(ranges.len(), parts);
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor, "len={len} parts={parts}");
                    cursor = r.end;
                }
                assert_eq!(cursor, len);
            }
        }
    }

    #[test]
    fn ranges_are_balanced() {
        let sizes: Vec<usize> = chunk_ranges(10, 3).map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn map_chunks_matches_sequential() {
        let pool = Pool::new(3);
        let data: Vec<u32> = (0..97).collect();
        let partials = par_map_chunks(&pool, &data, 5, |_, chunk| chunk.iter().sum::<u32>());
        assert_eq!(partials.len(), 5);
        assert_eq!(partials.iter().sum::<u32>(), (0..97).sum::<u32>());
    }

    #[test]
    fn map_chunks_preserves_order() {
        let pool = Pool::new(4);
        let data: Vec<u32> = (0..20).collect();
        let firsts = par_map_chunks(&pool, &data, 4, |i, chunk| (i, chunk[0]));
        assert_eq!(firsts, vec![(0, 0), (1, 5), (2, 10), (3, 15)]);
    }

    #[test]
    fn map_chunks_handles_more_parts_than_elements() {
        let pool = Pool::new(2);
        let data = [1u8, 2];
        let lens = par_map_chunks(&pool, &data, 5, |_, chunk| chunk.len());
        assert_eq!(lens, vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn map_chunks_empty_input_still_produces_all_states() {
        // `tree_combine` depends on every virtual processor producing a
        // state even when it owns no elements: p states in, p idents out.
        let pool = Pool::new(2);
        let data: [u32; 0] = [];
        let states = par_map_chunks(&pool, &data, 6, |i, chunk| {
            assert!(chunk.is_empty());
            (i, chunk.iter().sum::<u32>()) // the fold's ident() for sum
        });
        assert_eq!(states, (0..6).map(|i| (i, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_runs_empty_chunks_inline() {
        // Empty chunks must not pay a pool round-trip: they run on the
        // calling thread, non-empty ones on workers.
        let pool = Pool::new(2);
        let caller = std::thread::current().id();
        let data = [7u8];
        let on_caller = par_map_chunks(&pool, &data, 4, |_, chunk| {
            (chunk.len(), std::thread::current().id() == caller)
        });
        for (len, inline) in on_caller {
            assert_eq!(inline, len == 0, "len={len}");
        }
    }
}
