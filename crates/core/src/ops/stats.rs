//! A `mean/variance` operator: streaming moments with a numerically
//! stable parallel merge.
//!
//! Not in the paper's listings, but exactly the kind of operator its
//! abstraction exists for: the input type (`f64`), state type (count,
//! mean, M2) and output type ([`Moments`]) are all different, and the
//! combine function (Chan et al.'s pairwise merge) is genuinely distinct
//! from the accumulate function (Welford's update) — the situation the
//! paper notes the older ZPL overloading approach could not express.
//!
//! A run of elements is reduced two-pass per block and Chan across blocks:
//! `accum_block` takes each [`BLOCK`]-element block's sum, hence mean, and
//! then its Σ(x − mean)², both through the pinned lane fold
//! ([`fold_block`], [`LANES`] lanes), and merges the block's moments onto
//! the running state with the operator's own `combine`. Welford's update
//! is a subtract → divide → add chain on `mean` (7 ns per element); the two
//! passes have no chain across elements and no divide (0.3 ns, the second
//! over a block still in L1). The scalar Welford stays as `accum`: scans
//! need the running moments after every element, and a run shorter than a
//! lane group is cheaper that way.

use crate::kernel::{fold_block, fold_block_map, BLOCK, LANES};
use crate::op::ReduceScanOp;

/// Accumulated moments of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MomentState {
    /// Number of samples.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations from the mean (M2).
    pub m2: f64,
}

/// Result of a [`MeanVar`] reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Number of samples.
    pub count: u64,
    /// Sample mean (0 for an empty input).
    pub mean: f64,
    /// Population variance (0 for fewer than two samples).
    pub variance: f64,
}

impl Moments {
    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Streaming mean and variance over `f64` samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanVar;

impl ReduceScanOp for MeanVar {
    type In = f64;
    type State = MomentState;
    type Out = Moments;

    fn ident(&self) -> MomentState {
        MomentState::default()
    }

    fn accum(&self, state: &mut MomentState, x: &f64) {
        // Welford's update.
        state.count += 1;
        let delta = *x - state.mean;
        state.mean += delta / state.count as f64;
        let delta2 = *x - state.mean;
        state.m2 += delta * delta2;
    }

    /// Two-pass moments per [`BLOCK`]-element block, merged block onto
    /// block by [`combine`](Self::combine); see the module docs. Equal to
    /// the Welford loop up to rounding — and closer to the exact moments
    /// when the mean is large against the spread, since each deviation is
    /// taken from the block's final mean rather than a running one.
    ///
    /// A block shorter than a lane group, or whose sum is not finite (a
    /// NaN or ±∞ among its elements, or an overflow), goes through
    /// [`accum`](Self::accum) instead, so those propagate exactly as in
    /// the scalar loop.
    fn accum_block(&self, state: &mut MomentState, run: &[f64]) -> bool {
        for block in run.chunks(BLOCK) {
            let sum = fold_block(0.0, block, |a, b| a + b);
            let mean = sum / block.len() as f64;
            if block.len() < LANES || !mean.is_finite() {
                for x in block {
                    self.accum(state, x);
                }
                continue;
            }
            let m2 = fold_block_map(0.0, block, |x| (x - mean) * (x - mean), |a, b| a + b);
            self.combine(state, MomentState { count: block.len() as u64, mean, m2 });
        }
        true
    }

    fn combine(&self, earlier: &mut MomentState, later: MomentState) {
        // Chan/Golub/LeVeque pairwise merge.
        if later.count == 0 {
            return;
        }
        if earlier.count == 0 {
            *earlier = later;
            return;
        }
        let n_a = earlier.count as f64;
        let n_b = later.count as f64;
        let n = n_a + n_b;
        let delta = later.mean - earlier.mean;
        earlier.mean += delta * n_b / n;
        earlier.m2 += later.m2 + delta * delta * n_a * n_b / n;
        earlier.count += later.count;
    }

    fn red_gen(&self, state: MomentState) -> Moments {
        Moments {
            count: state.count,
            mean: state.mean,
            variance: if state.count > 0 {
                state.m2 / state.count as f64
            } else {
                0.0
            },
        }
    }

    fn scan_gen(&self, state: &MomentState, _x: &f64) -> Moments {
        self.red_gen(*state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScanKind;
    use crate::seq;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn moments_of_known_sample() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let got = seq::reduce(&MeanVar, &data);
        assert_eq!(got.count, 8);
        assert!(close(got.mean, 5.0));
        assert!(close(got.variance, 4.0));
        assert!(close(got.std_dev(), 2.0));
    }

    #[test]
    fn empty_and_singleton() {
        let empty = seq::reduce(&MeanVar, &[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.variance, 0.0);
        let single = seq::reduce(&MeanVar, &[3.5]);
        assert_eq!(single.count, 1);
        assert!(close(single.mean, 3.5));
        assert!(close(single.variance, 0.0));
    }

    #[test]
    fn parallel_merge_matches_sequential() {
        let pool = gv_executor::Pool::new(2);
        let data: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 1000) as f64 / 7.0).collect();
        let expected = seq::reduce(&MeanVar, &data);
        for parts in [1, 2, 8, 64, 1000] {
            let got = crate::par::reduce(&pool, parts, &MeanVar, &data);
            assert_eq!(got.count, expected.count);
            assert!(close(got.mean, expected.mean), "parts={parts}");
            assert!(close(got.variance, expected.variance), "parts={parts}");
        }
    }

    #[test]
    fn inclusive_scan_gives_prefix_moments() {
        let data = [1.0, 2.0, 3.0];
        let got = seq::scan(&MeanVar, &data, ScanKind::Inclusive);
        assert_eq!(got[0].count, 1);
        assert!(close(got[1].mean, 1.5));
        assert_eq!(got[2].count, 3);
        assert!(close(got[2].mean, 2.0));
        assert!(close(got[2].variance, 2.0 / 3.0));
    }
}
