//! The `mini` / `maxi` operators (paper Listing 5): minimum (maximum) value
//! and its location.
//!
//! The paper's Chapel version takes tuples `(elt_t, integer)` built by an
//! array expression `[i in 1..n] (A(i), i)`; this version does the same
//! with `(T, L)` input pairs. Unlike the single-type
//! [`crate::ops::builtin::minloc`] (the MPI built-in), the state here is an
//! `Option`, making the identity a *true* identity even when real input
//! values equal the type's extreme — one of the robustness improvements an
//! expressive state type buys (paper §3: the state type "may also be
//! different").
//!
//! The array expression need not be built either: both operators are
//! [`ValueGate`]s (a value can change the state only if it reaches the best
//! so far), so `seq::reduce` and `gv_rsmpi::reduce_all` read a
//! [`crate::iter::Located`] input — `A` and a first location — directly,
//! building a pair only for a value that reaches the best.

use std::marker::PhantomData;

use crate::kernel::ValueGate;
use crate::op::ReduceScanOp;

/// Picks between two `(value, location)` candidates; `better` is a strict
/// comparison on values and ties go to the smaller location.
#[inline]
fn pick<T: Copy + PartialOrd, L: Copy + Ord>(
    current: &mut Option<(T, L)>,
    candidate: (T, L),
    better: impl Fn(&T, &T) -> bool,
) {
    match current {
        None => *current = Some(candidate),
        Some((v, l)) => {
            if better(&candidate.0, v) || (candidate.0 == *v && candidate.1 < *l) {
                *current = Some(candidate);
            }
        }
    }
}

macro_rules! locate_op {
    ($(#[$doc:meta])* $name:ident, $ctor:ident, $better:expr, $reaches:tt) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name<T, L>(PhantomData<(T, L)>);

        impl<T, L> $name<T, L> {
            /// Creates the operator.
            pub fn new() -> Self {
                $name(PhantomData)
            }
        }

        #[doc = concat!("Convenience constructor for [`", stringify!($name), "`].")]
        pub fn $ctor<T, L>() -> $name<T, L> {
            $name(PhantomData)
        }

        impl<T, L> ReduceScanOp for $name<T, L>
        where
            T: Copy + PartialOrd + std::fmt::Debug,
            L: Copy + Ord + std::fmt::Debug,
        {
            type In = (T, L);
            type State = Option<(T, L)>;
            type Out = Option<(T, L)>;

            fn ident(&self) -> Self::State {
                None
            }

            fn accum(&self, state: &mut Self::State, x: &(T, L)) {
                pick(state, *x, $better);
            }

            fn combine(&self, earlier: &mut Self::State, later: Self::State) {
                if let Some(candidate) = later {
                    pick(earlier, candidate, $better);
                }
            }

            fn red_gen(&self, state: Self::State) -> Self::Out {
                state
            }

            fn scan_gen(&self, state: &Self::State, _x: &(T, L)) -> Self::Out {
                *state
            }
        }

        /// Open on an empty state; then a value is admitted if it reaches
        /// the best so far. Non-strict, so an equal value still meets its
        /// location tie-break in `accum`. As in `accum`, a NaN value is
        /// never admitted, and a NaN best admits nothing.
        impl<T, L> ValueGate<T> for $name<T, L>
        where
            T: Copy + PartialOrd + std::fmt::Debug,
            L: Copy + Ord + std::fmt::Debug,
        {
            /// The best value so far.
            type Gate = T;

            fn gate(&self, state: &Self::State) -> Option<T> {
                state.map(|(best, _)| best)
            }

            #[inline]
            fn admits(best: T, x: T) -> bool {
                x $reaches best
            }
        }
    };
}

locate_op! {
    /// `mini`: the minimum value and its location (paper Listing 5).
    /// Returns `None` only for an empty input.
    MinI, mini, |a, b| a < b, <=
}

locate_op! {
    /// `maxi`: the maximum value and its location.
    MaxI, maxi, |a, b| a > b, >=
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    /// Builds the paper's `[i in 1..n] (A(i), i)` array expression.
    fn with_locations(a: &[i64]) -> Vec<(i64, usize)> {
        a.iter().copied().zip(1..).collect()
    }

    #[test]
    fn mini_finds_value_and_location() {
        let a = [6i64, 7, 6, 3, 8, 2, 8, 4, 8, 3];
        let pairs = with_locations(&a);
        assert_eq!(seq::reduce(&mini(), &pairs), Some((2, 6)));
        assert_eq!(seq::reduce(&maxi(), &pairs), Some((8, 5)));
    }

    #[test]
    fn ties_break_to_first_location() {
        let pairs = vec![(3i32, 10u32), (3, 4), (3, 7)];
        assert_eq!(seq::reduce(&mini(), &pairs), Some((3, 4)));
        assert_eq!(seq::reduce(&maxi(), &pairs), Some((3, 4)));
    }

    #[test]
    fn empty_input_is_none() {
        let pairs: Vec<(i32, u32)> = vec![];
        assert_eq!(seq::reduce(&mini(), &pairs), None);
    }

    #[test]
    fn extreme_values_are_handled_correctly() {
        // The Option state means i64::MAX inputs are found (the single-type
        // minloc built-in would conflate them with its identity).
        let pairs = vec![(i64::MAX, 1u32), (i64::MAX, 2)];
        assert_eq!(seq::reduce(&mini(), &pairs), Some((i64::MAX, 1)));
        assert_eq!(seq::reduce(&maxi(), &pairs), Some((i64::MAX, 1)));
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = gv_executor::Pool::new(2);
        let a: Vec<i64> = (0..300).map(|i| ((i * 91) % 157) as i64).collect();
        let pairs = with_locations(&a);
        let op = mini();
        let expected = seq::reduce(&op, &pairs);
        for parts in [1, 3, 16, 300] {
            assert_eq!(crate::par::reduce(&pool, parts, &op, &pairs), expected);
        }
    }
}
