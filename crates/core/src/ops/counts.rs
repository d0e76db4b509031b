//! The `counts` operator (paper §3.1.3, Listing 6): bucket occupancy counts
//! and within-bucket rankings.
//!
//! "Given a list of particles with locations in one of eight octants, a
//! reduction could determine how many particles are in each location. A
//! scan could determine a ranking of the particles within each octant."
//!
//! This operator is the paper's showcase for *distinct* generate functions:
//! the reduction generates the whole count vector (`red_gen`), while the
//! scan generates, at each position, only the count of that position's own
//! bucket (`scan_gen(x) = v[x]`) — with an inclusive scan that is exactly
//! the particle's 1-based rank within its bucket.

use crate::op::{ElementwiseState, ReduceScanOp};
use crate::split::{split_vec_segments, unsplit_vec_segments, SplittableState};

/// The `counts` operator over bucket indices `0..k`.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    k: usize,
}

impl Counts {
    /// Creates a counts operator with `k ≥ 1` buckets. Inputs are 0-based
    /// bucket indices and must be `< k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "counts needs at least one bucket");
        Counts { k }
    }

    /// The number of buckets.
    pub fn buckets(&self) -> usize {
        self.k
    }
}

impl ReduceScanOp for Counts {
    type In = usize;
    type State = Vec<u64>;
    type Out = Vec<u64>;

    fn ident(&self) -> Vec<u64> {
        vec![0; self.k]
    }

    fn accum(&self, state: &mut Vec<u64>, x: &usize) {
        state[self.slot_of(x)] += 1;
    }

    fn accum_block(&self, state: &mut Vec<u64>, block: &[usize]) -> bool {
        // The closure runs in input order, so the out-of-range panic fires
        // on the same element (and with the same message) as `accum`.
        crate::kernel::count_into(state, block, |x| self.slot_of(x));
        true
    }

    fn combine(&self, earlier: &mut Vec<u64>, later: Vec<u64>) {
        crate::kernel::combine_elementwise(earlier, &later, |a, b| a + b);
    }

    fn red_gen(&self, state: Vec<u64>) -> Vec<u64> {
        state
    }

    /// Note the asymmetry with `red_gen`: the scan output at each position
    /// is a single count, not the whole vector (Listing 6 line 11–12).
    fn scan_gen(&self, state: &Vec<u64>, x: &usize) -> Vec<u64> {
        vec![state[*x]]
    }

    /// Priced by the state given, not by `k`: a segment of a split state
    /// carries and combines only its own buckets.
    fn wire_size(&self, state: &Vec<u64>) -> usize {
        state.len() * std::mem::size_of::<u64>()
    }

    fn combine_ops(&self, incoming: &Vec<u64>) -> u64 {
        incoming.len() as u64
    }

    fn elementwise(&self) -> Option<&dyn ElementwiseState<Vec<u64>, usize>> {
        Some(self)
    }
}

/// An index counts one in its bucket.
impl ElementwiseState<Vec<u64>, usize> for Counts {
    fn slots<'s>(&self, state: &'s mut Vec<u64>) -> &'s mut [u64] {
        state
    }

    fn slot_of(&self, x: &usize) -> usize {
        assert!(
            *x < self.k,
            "bucket index {x} out of range for {} buckets",
            self.k
        );
        *x
    }
}

/// Kept for callers that name the trait ([`crate::split`]).
impl SplittableState for Counts {
    fn split_state(&self, state: Vec<u64>, parts: usize) -> Vec<Vec<u64>> {
        split_vec_segments(state, parts)
    }

    fn unsplit_state(&self, segments: Vec<Vec<u64>>) -> Vec<u64> {
        unsplit_vec_segments(segments)
    }
}

/// A rank-producing variant of [`Counts`] whose scan output type is a bare
/// `u64` rather than a one-element vector.
///
/// The paper gives `counts` different generate functions for reduce and
/// scan but a *single* output type per use; Rust's associated types force
/// one `Out` per operator, so this sibling operator exists for callers who
/// want rankings with the natural scalar type. Its reduce result is the
/// count of the *last* element's bucket.
#[derive(Debug, Clone, Copy)]
pub struct BucketRank {
    inner: Counts,
    /// Which bucket `red_gen` reports (scan callers ignore this).
    pub report_bucket: usize,
}

impl BucketRank {
    /// Creates the operator with `k` buckets; `red_gen` reports bucket 0.
    pub fn new(k: usize) -> Self {
        BucketRank {
            inner: Counts::new(k),
            report_bucket: 0,
        }
    }
}

impl ReduceScanOp for BucketRank {
    type In = usize;
    type State = Vec<u64>;
    type Out = u64;

    fn ident(&self) -> Vec<u64> {
        self.inner.ident()
    }

    fn accum(&self, state: &mut Vec<u64>, x: &usize) {
        self.inner.accum(state, x);
    }

    fn accum_block(&self, state: &mut Vec<u64>, block: &[usize]) -> bool {
        self.inner.accum_block(state, block)
    }

    fn combine(&self, earlier: &mut Vec<u64>, later: Vec<u64>) {
        self.inner.combine(earlier, later);
    }

    fn red_gen(&self, state: Vec<u64>) -> u64 {
        state[self.report_bucket]
    }

    fn scan_gen(&self, state: &Vec<u64>, x: &usize) -> u64 {
        state[*x]
    }

    fn wire_size(&self, state: &Vec<u64>) -> usize {
        self.inner.wire_size(state)
    }

    fn combine_ops(&self, incoming: &Vec<u64>) -> u64 {
        self.inner.combine_ops(incoming)
    }

    fn elementwise(&self) -> Option<&dyn ElementwiseState<Vec<u64>, usize>> {
        Some(&self.inner)
    }
}

/// Kept for callers that name the trait ([`crate::split`]).
impl SplittableState for BucketRank {
    fn split_state(&self, state: Vec<u64>, parts: usize) -> Vec<Vec<u64>> {
        split_vec_segments(state, parts)
    }

    fn unsplit_state(&self, segments: Vec<Vec<u64>>) -> Vec<u64> {
        unsplit_vec_segments(segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScanKind;
    use crate::seq;

    /// The paper's §3.1.3 particle example, converted to 0-based octants.
    fn paper_particles() -> Vec<usize> {
        [6, 7, 6, 3, 8, 2, 8, 4, 8, 3]
            .iter()
            .map(|&o| o - 1)
            .collect()
    }

    #[test]
    fn paper_reduction_counts() {
        let got = seq::reduce(&Counts::new(8), &paper_particles());
        assert_eq!(got, vec![0, 1, 2, 1, 0, 2, 1, 3]);
    }

    #[test]
    fn paper_scan_rankings() {
        let got = seq::scan(&BucketRank::new(8), &paper_particles(), ScanKind::Inclusive);
        assert_eq!(got, vec![1, 1, 2, 1, 1, 1, 2, 1, 3, 2]);
    }

    #[test]
    fn counts_scan_gen_returns_single_count() {
        let got = seq::scan(&Counts::new(8), &paper_particles(), ScanKind::Inclusive);
        let flattened: Vec<u64> = got.into_iter().flatten().collect();
        assert_eq!(flattened, vec![1, 1, 2, 1, 1, 1, 2, 1, 3, 2]);
    }

    #[test]
    fn exclusive_scan_gives_zero_based_ranks() {
        let got = seq::scan(&BucketRank::new(8), &paper_particles(), ScanKind::Exclusive);
        assert_eq!(got, vec![0, 0, 1, 0, 0, 0, 1, 0, 2, 1]);
    }

    #[test]
    fn total_count_equals_input_length() {
        let particles = paper_particles();
        let counts = seq::reduce(&Counts::new(8), &particles);
        assert_eq!(counts.iter().sum::<u64>(), particles.len() as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bucket_panics() {
        seq::reduce(&Counts::new(4), &[0usize, 5]);
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let pool = gv_executor::Pool::new(2);
        let particles: Vec<usize> = (0..1000).map(|i| (i * 7 + 3) % 8).collect();
        let op = Counts::new(8);
        let expected = seq::reduce(&op, &particles);
        for parts in [1, 4, 9, 64] {
            assert_eq!(crate::par::reduce(&pool, parts, &op, &particles), expected);
        }
        let rank_op = BucketRank::new(8);
        let expected_ranks = seq::scan(&rank_op, &particles, ScanKind::Inclusive);
        for parts in [1, 4, 9, 64] {
            assert_eq!(
                crate::par::scan(&pool, parts, &rank_op, &particles, ScanKind::Inclusive),
                expected_ranks
            );
        }
    }
}
