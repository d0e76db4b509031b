//! Splittable reduction states — the precondition for reduce-scatter
//! based combine schedules.
//!
//! The message-passing layer's bandwidth-optimal allreduce (Rabenseifner's
//! reduce-scatter + allgather; see Träff, *Optimal, Non-pipelined
//! Reduce-scatter and Allreduce Algorithms*) never ships a whole state
//! between two ranks. Instead every rank splits its state into `p`
//! segments, each segment is combined independently across ranks, and the
//! combined segments are reassembled on every rank. That is only correct
//! for operators whose `combine` *distributes over the segments*:
//!
//! ```text
//! combine(a, b)  ==  unsplit([combine(a₀, b₀), …, combine(a_{p−1}, b_{p−1})])
//!     where  [a₀ … a_{p−1}] = split(a)  and  [b₀ … b_{p−1}] = split(b)
//! ```
//!
//! Vector-shaped states with element-wise combine (histogram bins, bucket
//! counts) satisfy this with contiguous chunking; top-k style states
//! satisfy it because the k best of a union survive in whichever segment
//! they land in. Scalar states (sums, min/max, `sorted`) have nothing to
//! split and simply do not implement the trait — the algorithm selector
//! then falls back to whole-state schedules.

use crate::op::ReduceScanOp;

/// Operators whose [`State`](ReduceScanOp::State) can be split into
/// per-rank segments combined independently — the requirement for the
/// reduce-scatter + allgather allreduce.
///
/// # Laws
///
/// For every reachable state `s` and every `parts ≥ 1`:
///
/// 1. **Exactness**: `split_state(s, parts)` returns exactly `parts`
///    segments (empty segments are fine).
/// 2. **Round trip**: `unsplit_state(split_state(s, parts)) == s`.
/// 3. **Distributivity**: combining two states segment-wise and
///    reassembling equals combining them whole (the equation in the
///    module docs).
///
/// Segments are themselves values of `State`, so
/// [`wire_size`](ReduceScanOp::wire_size) and
/// [`combine_ops`](ReduceScanOp::combine_ops) price them correctly.
pub trait SplittableState: ReduceScanOp {
    /// Splits `state` into exactly `parts` segments, in order.
    fn split_state(&self, state: Self::State, parts: usize) -> Vec<Self::State>;

    /// Reassembles per-segment (already combined) states, in segment
    /// order, into a whole state.
    fn unsplit_state(&self, segments: Vec<Self::State>) -> Self::State;
}

/// The half-open index ranges of the balanced contiguous chunking used by
/// [`split_vec_segments`] — the block decomposition every engine uses,
/// under the name a state's segments go by: the first `len % parts`
/// segments get one extra element, segments beyond `len` are empty.
/// Depends only on `(len, parts)`, so equal-length states chunk identically
/// on every rank — the property the pipelined schedules rely on when
/// matching segment indices across ranks. Panics if `parts` is zero.
pub use gv_executor::chunk_ranges as segment_ranges;

/// Splits a vector into `parts` balanced contiguous chunks (the first
/// `len % parts` chunks get one extra element; chunks beyond `len` are
/// empty). The chunking follows [`segment_ranges`], so equal-length
/// states split identically on every rank.
///
/// Linear in `len` whatever `parts` is: every element moves exactly once,
/// into a segment allocated at its own size, and the input allocation is
/// freed on return — so the segments hold `len` elements of capacity
/// between them, however many there are. One part is the input itself,
/// moved, not copied.
pub fn split_vec_segments<T>(v: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    if parts == 1 {
        return vec![v];
    }
    let ranges = segment_ranges(v.len(), parts);
    let mut rest = v.into_iter();
    ranges
        .map(|range| rest.by_ref().take(range.len()).collect())
        .collect()
}

/// Concatenates segments back into one vector — the inverse of
/// [`split_vec_segments`] for element-wise operators.
pub fn unsplit_vec_segments<T>(segments: Vec<Vec<T>>) -> Vec<T> {
    let total = segments.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for seg in segments {
        out.extend(seg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_testkit::prop::{check, usizes, Config};
    use gv_testkit::{prop_assert, prop_assert_eq};

    #[test]
    fn split_is_balanced_and_ordered() {
        let chunks = split_vec_segments((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(chunks, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7], vec![8, 9]]);
    }

    #[test]
    fn more_parts_than_elements_gives_empty_tails() {
        let chunks = split_vec_segments(vec![1, 2], 5);
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[0], vec![1]);
        assert_eq!(chunks[1], vec![2]);
        assert!(chunks[2..].iter().all(Vec::is_empty));
    }

    #[test]
    fn unsplit_round_trips() {
        for parts in [1usize, 2, 3, 7, 16] {
            let v: Vec<u32> = (0..13).collect();
            assert_eq!(unsplit_vec_segments(split_vec_segments(v.clone(), parts)), v);
        }
    }

    #[test]
    fn empty_vector_splits_into_empty_segments() {
        let chunks = split_vec_segments(Vec::<u8>::new(), 3);
        assert_eq!(chunks, vec![vec![], vec![], vec![]]);
    }

    #[test]
    fn one_part_is_the_input_allocation() {
        let mut v: Vec<u64> = Vec::with_capacity(100);
        v.extend(0..40);
        let (ptr, capacity) = (v.as_ptr(), v.capacity());
        let chunks = split_vec_segments(v, 1);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].as_ptr(), ptr);
        assert_eq!(chunks[0].capacity(), capacity);
        assert_eq!(chunks[0], (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn segment_capacity_is_linear_in_len_whatever_parts() {
        // (len, parts) up to 600 × 96: parts > len, len == 0 and
        // parts == 1 all occur. The slack is the allocator's rounding.
        check(
            "segment_capacity_is_linear_in_len_whatever_parts",
            &Config::new(300),
            &(usizes(0..600), usizes(1..96)),
            |&(len, parts)| {
                let v: Vec<u64> = (0..len as u64).collect();
                let chunks = split_vec_segments(v.clone(), parts);
                prop_assert_eq!(chunks.len(), parts);
                let held: usize = chunks.iter().map(Vec::capacity).sum();
                prop_assert!(
                    held <= 2 * len + 8 * parts,
                    "len={len} parts={parts}: segments hold capacity {held}"
                );
                for (range, chunk) in segment_ranges(len, parts).zip(&chunks) {
                    prop_assert_eq!(&v[range], chunk.as_slice());
                }
                prop_assert_eq!(unsplit_vec_segments(chunks), v);
                Ok(())
            },
        );
    }

    #[test]
    fn non_clone_and_zero_sized_elements_round_trip() {
        #[derive(Debug, PartialEq)]
        struct Token(u32);
        for parts in [1usize, 2, 3, 7, 16] {
            let tokens = || (0..13).map(Token).collect::<Vec<_>>();
            let chunks = split_vec_segments(tokens(), parts);
            assert_eq!(chunks.len(), parts);
            assert_eq!(unsplit_vec_segments(chunks), tokens());

            let units = split_vec_segments(vec![(); 13], parts);
            let lens: Vec<usize> = units.iter().map(Vec::len).collect();
            let expect: Vec<usize> = segment_ranges(13, parts).map(|r| r.len()).collect();
            assert_eq!(lens, expect);
            assert_eq!(unsplit_vec_segments(units).len(), 13);
        }
    }
}
