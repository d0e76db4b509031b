//! Segmented scans: independent scans over flag-delimited segments, as one
//! operator.
//!
//! The paper's related work credits NESL (Blelloch) for demonstrating "how
//! effective this primitive can be" — the segmented scan is *the* NESL
//! primitive, and it is expressible as an ordinary (non-commutative)
//! user-defined operator in the global-view abstraction: the input is a
//! `(value, starts_segment)` pair and the state is the classic segmented
//! monoid `(value, seen_reset)`:
//!
//! ```text
//! (a, ra) ⊕ (b, rb) = if rb { (b, true) } else { (a ⊕ b, ra) }
//! ```
//!
//! An inclusive scan of this operator yields, at every position, the scan
//! of that position's own segment — with full parallel-prefix execution
//! across segment boundaries.

use crate::op::ReduceScanOp;

/// State of a segmented reduction: the combined suffix since the last
/// segment start, and whether the covered run contains a segment start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegState<T> {
    /// Combined value of the trailing segment fragment.
    pub value: T,
    /// Whether a segment boundary occurs inside the covered run.
    pub reset: bool,
}

/// Lifts a single-type operator (`In = State = Out`: a built-in such as
/// `sum()`, or a user's monoid through [`crate::monoid::MonoidOp`]) into
/// its segmented form over `(value, flag)` pairs, where `flag = true`
/// starts a new segment at that element. Only the inner operator's
/// identity and combine are used.
///
/// * `reduce` yields the combination of the **last** segment.
/// * An inclusive `scan` yields the running per-segment scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segmented<M>(pub M);

impl<T, M> ReduceScanOp for Segmented<M>
where
    T: Clone,
    M: ReduceScanOp<In = T, State = T, Out = T>,
{
    type In = (T, bool);
    type State = SegState<T>;
    type Out = T;

    // The segmented monoid is associative but never commutative.
    const COMMUTATIVE: bool = false;

    fn ident(&self) -> Self::State {
        SegState {
            value: self.0.ident(),
            reset: false,
        }
    }

    fn accum(&self, state: &mut Self::State, (x, starts): &Self::In) {
        if *starts {
            state.value = x.clone();
            state.reset = true;
        } else {
            self.0.combine(&mut state.value, x.clone());
        }
    }

    fn combine(&self, earlier: &mut Self::State, later: Self::State) {
        if later.reset {
            earlier.value = later.value;
            earlier.reset = true;
        } else {
            self.0.combine(&mut earlier.value, later.value);
        }
    }

    fn red_gen(&self, state: Self::State) -> T {
        state.value
    }

    fn scan_gen(&self, state: &Self::State, _x: &Self::In) -> T {
        state.value.clone()
    }
}

/// Convenience: attaches segment-start flags derived from a boundary
/// predicate over consecutive elements (a boundary before index `i` when
/// `pred(&data[i-1], &data[i])`; index 0 always starts a segment).
pub fn flag_segments<T: Clone>(data: &[T], pred: impl Fn(&T, &T) -> bool) -> Vec<(T, bool)> {
    data.iter()
        .enumerate()
        .map(|(i, x)| {
            let starts = i == 0 || pred(&data[i - 1], x);
            (x.clone(), starts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{Monoid, MonoidOp};
    use crate::op::ScanKind;
    use crate::ops::builtin::Sum;
    use crate::seq;

    fn seg_sum() -> Segmented<Sum<i64>> {
        Segmented(Sum::default())
    }

    /// [5, 1 | 2, 3, 4 | 10] — classic segmented-sum example.
    fn sample() -> Vec<(i64, bool)> {
        vec![
            (5, true),
            (1, false),
            (2, true),
            (3, false),
            (4, false),
            (10, true),
        ]
    }

    #[test]
    fn inclusive_scan_restarts_at_segment_boundaries() {
        let got = seq::scan(&seg_sum(), &sample(), ScanKind::Inclusive);
        assert_eq!(got, vec![5, 6, 2, 5, 9, 10]);
    }

    #[test]
    fn reduce_yields_last_segment_total() {
        assert_eq!(seq::reduce(&seg_sum(), &sample()), 10);
        let two_segments = vec![(1i64, true), (2, false), (3, true), (4, false)];
        assert_eq!(seq::reduce(&seg_sum(), &two_segments), 7);
    }

    #[test]
    fn parallel_segmented_scan_matches_sequential_for_all_chunkings() {
        let pool = gv_executor::Pool::new(2);
        let data: Vec<(i64, bool)> = (0..200).map(|i| ((i * 31) % 17, i % 7 == 0)).collect();
        let expected = seq::scan(&seg_sum(), &data, ScanKind::Inclusive);
        for parts in [1, 2, 3, 8, 50, 200, 300] {
            assert_eq!(
                crate::par::scan(&pool, parts, &seg_sum(), &data, ScanKind::Inclusive),
                expected,
                "parts={parts}"
            );
        }
    }

    #[test]
    fn segmented_monoid_is_associative() {
        // Exhaustive check over small state triples.
        let op = seg_sum();
        let states: Vec<SegState<i64>> = [(0, false), (3, false), (7, true), (-2, true)]
            .iter()
            .map(|&(value, reset)| SegState { value, reset })
            .collect();
        for a in &states {
            for b in &states {
                for c in &states {
                    let mut left = *a;
                    op.combine(&mut left, *b);
                    op.combine(&mut left, *c);
                    let mut bc = *b;
                    op.combine(&mut bc, *c);
                    let mut right = *a;
                    op.combine(&mut right, bc);
                    assert_eq!(left, right, "a={a:?} b={b:?} c={c:?}");
                }
            }
        }
    }

    #[test]
    fn flag_segments_by_key_change() {
        // Group-by-key prefix sums: a new segment whenever the key changes.
        let keyed: Vec<(u8, i64)> = vec![(1, 10), (1, 20), (2, 1), (2, 2), (2, 3), (9, 7)];
        let flagged = flag_segments(&keyed, |a, b| a.0 != b.0);
        let input: Vec<(i64, bool)> = flagged.iter().map(|((_, v), s)| (*v, *s)).collect();
        let got = seq::scan(&seg_sum(), &input, ScanKind::Inclusive);
        assert_eq!(got, vec![10, 30, 1, 3, 6, 7]);
    }

    #[test]
    fn works_with_noncommutative_inner_monoid() {
        struct Concat;
        impl Monoid for Concat {
            type T = String;
            const COMMUTATIVE: bool = false;
            fn identity(&self) -> String {
                String::new()
            }
            fn combine(&self, a: &mut String, b: &String) {
                a.push_str(b);
            }
        }
        let op = Segmented(MonoidOp(Concat));
        let data: Vec<(String, bool)> = [("a", true), ("b", false), ("c", true), ("d", false)]
            .iter()
            .map(|(s, f)| (s.to_string(), *f))
            .collect();
        let got = seq::scan(&op, &data, ScanKind::Inclusive);
        assert_eq!(got, vec!["a", "ab", "c", "cd"]);
    }
}
