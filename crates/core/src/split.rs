//! Names the frozen benchmark adapter calls. No schedule splits a state:
//! every blocking allreduce and scan runs recursive doubling, which
//! carries a state whole, and the entry points that take a `(split,
//! unsplit)` pair ignore it.

use crate::op::ReduceScanOp;

/// An operator whose state a caller may split into segments. No schedule
/// asks for it; [`Counts`](crate::ops::counts::Counts) and
/// [`BucketRank`](crate::ops::counts::BucketRank) keep it for callers that
/// name it.
pub trait SplittableState: ReduceScanOp {
    /// Splits `state` into exactly `parts` segments, in order.
    fn split_state(&self, state: Self::State, parts: usize) -> Vec<Self::State>;

    /// Reassembles segments, in order, into a whole state.
    fn unsplit_state(&self, segments: Vec<Self::State>) -> Self::State;
}

/// Splits a vector into `parts` balanced contiguous chunks, by the block
/// decomposition every engine uses (`gv_executor::chunk_ranges`).
pub fn split_vec_segments<T>(v: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let len = v.len();
    let mut rest = v.into_iter();
    gv_executor::chunk_ranges(len, parts)
        .map(|range| rest.by_ref().take(range.len()).collect())
        .collect()
}

/// Concatenates segments back into one vector: the inverse of
/// [`split_vec_segments`].
pub fn unsplit_vec_segments<T>(segments: Vec<Vec<T>>) -> Vec<T> {
    segments.into_iter().flatten().collect()
}
