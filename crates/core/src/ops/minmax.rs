//! Single-pass minimum *and* maximum — a small showcase of structured
//! state: one reduction replaces the two built-in calls an MPI program
//! would issue (the same economics as ZRAN3's forty-to-one collapse, in
//! miniature).

use crate::op::ReduceScanOp;

/// The `minmax` operator: reduces to `Some((min, max))`, `None` for empty
/// input.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMax<T>(std::marker::PhantomData<T>);

impl<T> MinMax<T> {
    /// Creates the operator.
    pub fn new() -> Self {
        MinMax(std::marker::PhantomData)
    }
}

/// Convenience constructor.
pub fn minmax<T>() -> MinMax<T> {
    MinMax::new()
}

impl<T> ReduceScanOp for MinMax<T>
where
    T: Copy + PartialOrd + std::fmt::Debug,
{
    type In = T;
    type State = Option<(T, T)>;
    type Out = Option<(T, T)>;

    fn ident(&self) -> Self::State {
        None
    }

    fn accum(&self, state: &mut Self::State, x: &T) {
        match state {
            None => *state = Some((*x, *x)),
            Some((lo, hi)) => {
                if *x < *lo {
                    *lo = *x;
                }
                if *x > *hi {
                    *hi = *x;
                }
            }
        }
    }

    /// The derived kernel: `accum` is two compare-and-keep chains on one
    /// small state, which four independent states hide (1.9× on `i64`,
    /// 3.9× on `f64`; DESIGN.md's opt-in table). Bit-identical to the
    /// scalar loop on totally ordered data (the [`crate::kernel`] NaN
    /// caveat applies).
    fn accum_block(&self, state: &mut Self::State, block: &[T]) -> bool {
        crate::kernel::accum_runs(self, state, block);
        true
    }

    fn combine(&self, earlier: &mut Self::State, later: Self::State) {
        if let Some((lo2, hi2)) = later {
            match earlier {
                None => *earlier = Some((lo2, hi2)),
                Some((lo, hi)) => {
                    if lo2 < *lo {
                        *lo = lo2;
                    }
                    if hi2 > *hi {
                        *hi = hi2;
                    }
                }
            }
        }
    }

    fn red_gen(&self, state: Self::State) -> Self::Out {
        state
    }

    fn scan_gen(&self, state: &Self::State, _x: &T) -> Self::Out {
        *state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScanKind;
    use crate::seq;

    #[test]
    fn finds_both_extremes_in_one_pass() {
        let data = [6i64, 7, 6, 3, 8, 2, 8, 4, 8, 3];
        assert_eq!(seq::reduce(&minmax(), &data), Some((2, 8)));
    }

    #[test]
    fn empty_is_none_singleton_is_self() {
        assert_eq!(seq::reduce(&minmax::<i32>(), &[]), None);
        assert_eq!(seq::reduce(&minmax(), &[42i32]), Some((42, 42)));
    }

    #[test]
    fn scan_tracks_running_envelope() {
        let data = [5i32, 2, 9, 3];
        let got = seq::scan(&minmax(), &data, ScanKind::Inclusive);
        assert_eq!(
            got,
            vec![Some((5, 5)), Some((2, 5)), Some((2, 9)), Some((2, 9))]
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = gv_executor::Pool::new(2);
        let data: Vec<i64> = (0..500).map(|i| (i * 97) % 389 - 200).collect();
        let expected = seq::reduce(&minmax(), &data);
        for parts in [1, 3, 16, 500, 600] {
            assert_eq!(crate::par::reduce(&pool, parts, &minmax(), &data), expected);
        }
    }

    #[test]
    fn works_for_floats_including_negatives() {
        let data = [0.5f64, -1.25, 3.75, 0.0];
        assert_eq!(seq::reduce(&minmax(), &data), Some((-1.25, 3.75)));
    }
}
