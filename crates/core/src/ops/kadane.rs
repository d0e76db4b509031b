//! `MaxSubarray` — the maximum-sum contiguous subarray (Kadane's problem)
//! as a global-view operator.
//!
//! The textbook mergeable state `(total, best_prefix, best_suffix, best)`
//! makes this a one-reduction problem on any engine — another
//! non-commutative, structured-state entry for the operator library, and
//! a standard demonstration that the abstraction reaches well beyond
//! arithmetic folds.

use crate::op::ReduceScanOp;

/// State of a [`MaxSubarray`] reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubarrayState {
    /// Sum of all covered elements.
    pub total: i64,
    /// Best sum of a prefix (possibly empty ⇒ 0).
    pub best_prefix: i64,
    /// Best sum of a suffix (possibly empty ⇒ 0).
    pub best_suffix: i64,
    /// Best sum of any contiguous (possibly empty) subarray.
    pub best: i64,
}

/// The maximum-subarray-sum operator over `i64` values. The empty
/// subarray is admitted, so the result is never negative (matching the
/// standard semiring formulation and keeping the identity exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxSubarray;

impl ReduceScanOp for MaxSubarray {
    type In = i64;
    type State = SubarrayState;
    type Out = i64;

    const COMMUTATIVE: bool = false;

    fn ident(&self) -> SubarrayState {
        SubarrayState {
            total: 0,
            best_prefix: 0,
            best_suffix: 0,
            best: 0,
        }
    }

    fn accum(&self, s: &mut SubarrayState, x: &i64) {
        let x = *x;
        s.best_suffix = (s.best_suffix + x).max(0);
        s.total += x;
        s.best_prefix = s.best_prefix.max(s.total);
        s.best = s.best.max(s.best_suffix);
    }

    fn combine(&self, a: &mut SubarrayState, b: SubarrayState) {
        *a = SubarrayState {
            total: a.total + b.total,
            best_prefix: a.best_prefix.max(a.total + b.best_prefix),
            best_suffix: b.best_suffix.max(b.total + a.best_suffix),
            best: a.best.max(b.best).max(a.best_suffix + b.best_prefix),
        };
    }

    fn red_gen(&self, s: SubarrayState) -> i64 {
        s.best
    }

    fn scan_gen(&self, s: &SubarrayState, _x: &i64) -> i64 {
        s.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScanKind;
    use crate::seq;

    /// O(n²) oracle (empty subarray admitted).
    fn oracle(data: &[i64]) -> i64 {
        let mut best = 0i64;
        for i in 0..data.len() {
            let mut sum = 0;
            for &x in &data[i..] {
                sum += x;
                best = best.max(sum);
            }
        }
        best
    }

    #[test]
    fn classic_example() {
        // The CLRS example: best is [4, −1, 2, 1] = 6.
        let data = [-2i64, 1, -3, 4, -1, 2, 1, -5, 4];
        assert_eq!(seq::reduce(&MaxSubarray, &data), 6);
    }

    #[test]
    fn all_negative_gives_empty_subarray() {
        assert_eq!(seq::reduce(&MaxSubarray, &[-5i64, -1, -9]), 0);
        assert_eq!(seq::reduce(&MaxSubarray, &[]), 0);
    }

    #[test]
    fn matches_oracle_on_pseudorandom_data() {
        for seed in 0..25u64 {
            let data: Vec<i64> = (0..80)
                .map(|i| (((i as u64).wrapping_mul(seed * 2 + 31)) % 21) as i64 - 10)
                .collect();
            assert_eq!(
                seq::reduce(&MaxSubarray, &data),
                oracle(&data),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn chunking_invariant() {
        let pool = gv_executor::Pool::new(2);
        let data: Vec<i64> = (0..200).map(|i| ((i * 37) % 19) as i64 - 9).collect();
        let expected = seq::reduce(&MaxSubarray, &data);
        for parts in [1, 2, 5, 16, 200, 256] {
            assert_eq!(
                crate::par::reduce(&pool, parts, &MaxSubarray, &data),
                expected,
                "parts={parts}"
            );
        }
    }

    #[test]
    fn inclusive_scan_is_prefix_best() {
        let data = [2i64, -5, 3, 1];
        let got = seq::scan(&MaxSubarray, &data, ScanKind::Inclusive);
        // Best over [2]=2, [2,-5]=2, [2,-5,3]=3, [2,-5,3,1]=4.
        assert_eq!(got, vec![2, 2, 3, 4]);
    }
}
