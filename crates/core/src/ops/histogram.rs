//! Value histograms over explicit bin edges — `counts` (Listing 6)
//! generalized from categorical bucket indices to real-valued data.
//!
//! Where [`crate::ops::counts::Counts`] takes pre-assigned bucket indices,
//! `Histogram` takes raw values and bins them against a sorted edge
//! vector, with underflow/overflow bins. The scan form ranks each value
//! within its bin, like the paper's particle example does for octants.

use crate::op::{ElementwiseState, ReduceScanOp};
use crate::split::{split_vec_segments, unsplit_vec_segments, SplittableState};

/// Bin assignment for a value against sorted edges `e0 < e1 < … < e_{m-1}`:
/// bin 0 is `(-∞, e0)`, bin i is `[e_{i-1}, e_i)`, bin m is `[e_{m-1}, ∞)`.
#[inline]
fn bin_of(edges: &[f64], x: f64) -> usize {
    edges.partition_point(|&e| e <= x)
}

/// Bin assignment for evenly spaced edges: an arithmetic guess followed by
/// a fixup walk against the actual edges, so the result is *exactly*
/// [`bin_of`] (the guess only saves the binary search; rounding error in
/// the division cannot change the answer).
#[inline]
fn bin_of_uniform(edges: &[f64], lo: f64, step: f64, x: f64) -> usize {
    let m = edges.len();
    // Saturating float→int cast: NaN and -∞ land on 0, +∞ past m.
    let mut b = ((x - lo) / step + 1.0) as usize;
    if b > m {
        b = m;
    }
    // The edges are sorted, so these local adjustments converge on the
    // unique b with edges[..b] <= x < edges[b..] — the partition point.
    while b < m && edges[b] <= x {
        b += 1;
    }
    while b > 0 && edges[b - 1] > x {
        b -= 1;
    }
    b
}

/// Result of a [`Histogram`] reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramCounts {
    /// Occupancy per bin, length `edges.len() + 1` (underflow bin first,
    /// overflow bin last).
    pub bins: Vec<u64>,
}

impl HistogramCounts {
    /// Total samples counted.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// The histogram operator.
#[derive(Debug, Clone)]
pub struct Histogram {
    edges: Vec<f64>,
    /// `(lo, step)` when the edges are known evenly spaced (built by
    /// [`Histogram::uniform`]); lets `accum_block` guess bins
    /// arithmetically instead of binary-searching.
    uniform: Option<(f64, f64)>,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing, finite bin
    /// edges (at least one).
    ///
    /// # Panics
    /// Panics on empty, non-finite or non-increasing edges.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "a histogram needs at least one edge");
        assert!(
            edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges,
            uniform: None,
        }
    }

    /// Evenly spaced edges covering `[lo, hi]` with `bins` interior bins.
    pub fn uniform(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1 && hi > lo);
        let step = (hi - lo) / bins as f64;
        let mut h = Self::new((0..=bins).map(|i| lo + step * i as f64).collect());
        h.uniform = Some((lo, step));
        h
    }

    /// Number of bins, including the two open-ended ones.
    pub fn bin_count(&self) -> usize {
        self.edges.len() + 1
    }

    /// The edge vector.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }
}

impl ReduceScanOp for Histogram {
    type In = f64;
    type State = Vec<u64>;
    /// Reduce yields the full histogram; the scan output at each position
    /// is that value's 1-based rank within its own bin (inclusive scan),
    /// mirroring Listing 6's distinct generate functions.
    type Out = HistogramCounts;

    fn ident(&self) -> Vec<u64> {
        vec![0; self.bin_count()]
    }

    fn accum(&self, state: &mut Vec<u64>, x: &f64) {
        state[bin_of(&self.edges, *x)] += 1;
    }

    fn accum_block(&self, state: &mut Vec<u64>, block: &[f64]) -> bool {
        match self.uniform {
            Some((lo, step)) => crate::kernel::count_into(state, block, |x| {
                bin_of_uniform(&self.edges, lo, step, *x)
            }),
            None => crate::kernel::count_into(state, block, |x| bin_of(&self.edges, *x)),
        }
        true
    }

    fn combine(&self, earlier: &mut Vec<u64>, later: Vec<u64>) {
        crate::kernel::combine_elementwise(earlier, &later, |a, b| a + b);
    }

    fn red_gen(&self, state: Vec<u64>) -> HistogramCounts {
        HistogramCounts { bins: state }
    }

    fn scan_gen(&self, state: &Vec<u64>, x: &f64) -> HistogramCounts {
        HistogramCounts {
            bins: vec![state[bin_of(&self.edges, *x)]],
        }
    }

    fn wire_size(&self, state: &Vec<u64>) -> usize {
        state.len() * std::mem::size_of::<u64>()
    }

    fn combine_ops(&self, incoming: &Vec<u64>) -> u64 {
        incoming.len() as u64
    }

    fn elementwise(&self) -> Option<&dyn ElementwiseState<Vec<u64>, f64>> {
        Some(self)
    }
}

/// A value counts one in its bin.
impl ElementwiseState<Vec<u64>, f64> for Histogram {
    fn slots<'s>(&self, state: &'s mut Vec<u64>) -> &'s mut [u64] {
        state
    }

    fn slot_of(&self, x: &f64) -> usize {
        match self.uniform {
            Some((lo, step)) => bin_of_uniform(&self.edges, lo, step, *x),
            None => bin_of(&self.edges, *x),
        }
    }
}

/// Histograms combine element-wise, so contiguous bin ranges combine
/// independently: any chunking of the bin vector satisfies the
/// distributivity law. All ranks share the edge vector, hence equal
/// state lengths, hence aligned chunks.
impl SplittableState for Histogram {
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

    #[test]
    fn bin_assignment_with_open_ends() {
        let edges = [0.0, 1.0, 2.0];
        assert_eq!(bin_of(&edges, -5.0), 0); // underflow
        assert_eq!(bin_of(&edges, 0.0), 1); // [0, 1)
        assert_eq!(bin_of(&edges, 0.99), 1);
        assert_eq!(bin_of(&edges, 1.0), 2); // [1, 2)
        assert_eq!(bin_of(&edges, 7.0), 3); // overflow
    }

    #[test]
    fn histogram_counts_known_data() {
        let h = Histogram::uniform(0.0, 10.0, 5); // edges 0,2,4,6,8,10
        let data = [-1.0, 0.5, 1.0, 3.3, 9.9, 10.0, 42.0];
        let got = seq::reduce(&h, &data);
        // underflow | [0,2) ×2 | [2,4) | [4,6) | [6,8) | [8,10) | overflow ×2
        assert_eq!(got.bins, vec![1, 2, 1, 0, 0, 1, 2]);
        assert_eq!(got.total(), data.len() as u64);
    }

    #[test]
    fn scan_ranks_within_bins() {
        let h = Histogram::new(vec![10.0]);
        // Bins: (<10) and (≥10); ranks within each.
        let data = [1.0, 20.0, 2.0, 30.0, 3.0];
        let got = seq::scan(&h, &data, ScanKind::Inclusive);
        let ranks: Vec<u64> = got.into_iter().map(|h| h.bins[0]).collect();
        assert_eq!(ranks, vec![1, 1, 2, 2, 3]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = gv_executor::Pool::new(2);
        let data: Vec<f64> = (0..1000).map(|i| ((i * 193) % 777) as f64 / 7.0).collect();
        let h = Histogram::uniform(0.0, 111.0, 16);
        let expected = seq::reduce(&h, &data);
        for parts in [1, 4, 33] {
            assert_eq!(crate::par::reduce(&pool, parts, &h, &data), expected);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_edges_panic() {
        Histogram::new(vec![1.0, 1.0]);
    }

    #[test]
    fn uniform_bin_guess_matches_binary_search() {
        let h = Histogram::uniform(-3.0, 5.0, 7);
        let (lo, step) = h.uniform.unwrap();
        let mut probes: Vec<f64> = vec![
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -1e300,
            1e300,
            -3.0,
            5.0,
            4.999999999999999,
            -3.0000000000000004,
        ];
        probes.extend(h.edges().to_vec());
        probes.extend((0..1000).map(|i| -4.0 + (i as f64) * 0.01));
        for x in probes {
            assert_eq!(
                bin_of_uniform(h.edges(), lo, step, x),
                bin_of(h.edges(), x),
                "uniform guess diverged at x = {x:?}"
            );
        }
    }

    #[test]
    fn block_accumulate_matches_scalar_accumulate() {
        // Long enough to take the replicated-table path in count_into.
        let data: Vec<f64> = (0..4096).map(|i| ((i * 37) % 1000) as f64 / 83.0).collect();
        for h in [
            Histogram::uniform(0.0, 12.0, 24),
            Histogram::new(vec![1.0, 2.0, 7.5]),
        ] {
            let mut kernel_state = h.ident();
            assert!(h.accum_block(&mut kernel_state, &data));
            let mut scalar_state = h.ident();
            for x in &data {
                h.accum(&mut scalar_state, x);
            }
            assert_eq!(kernel_state, scalar_state);
        }
    }
}
