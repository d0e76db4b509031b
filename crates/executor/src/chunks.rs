//! Chunk partitioning: one contiguous block per virtual processor.
//!
//! The global-view engines assign each virtual processor `q` a contiguous
//! block of the input, matching the paper's `in_q(0) .. in_q(n-1)` notation.
//! Blocks are balanced to within one element: the first `len % parts` blocks
//! get one extra element. Empty blocks occur only when `parts > len`, which
//! the engines must (and do) tolerate — the paper's Listings guard the
//! `pre_accum`/`post_accum` calls with `if n > 0` for exactly this reason.

use std::ops::Range;

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
}
