//! The `mink` / `maxk` operators (paper Listings 1 and 4): the `k` smallest
//! (or largest) values of the input.
//!
//! The state is a length-`k` vector ordered so that the *replaceable*
//! element — the worst of the current best `k` — sits at index 0, exactly
//! as in the paper's C and Chapel listings ("a vector of k elements in
//! sorted order from high to low" for `mink`). `accum` is the paper's
//! bubble insertion; `combine` accumulates the other state's elements, the
//! same trick as Listing 4 line 15–17.
//!
//! The block kernel (`accum_block`) is that insertion behind a filter: a
//! 1024-element block goes through it only if
//! [`crate::kernel::any_in_block`] finds an element strictly better than
//! the worst retained one — the same ISA-dispatched predicate OR
//! `TopBottomK` asks about its pairs, so the three k-best operators share
//! one filter and differ only in the question (strict here: there is no
//! location to break a tie). Bit-identical to the per-element loop.

use crate::kernel::{any_in_block, BLOCK};
use crate::op::ReduceScanOp;
use crate::ops::num::Bounded;

/// State of a [`MinK`]/[`MaxK`] reduction: the current best `k` values,
/// worst-first.
#[derive(Debug, Clone, PartialEq)]
pub struct KBest<T> {
    values: Vec<T>,
}

impl<T: Copy> KBest<T> {
    /// The retained values, worst-first (descending for `mink`, ascending
    /// for `maxk`) — the internal order of the paper's listings.
    pub fn worst_first(&self) -> &[T] {
        &self.values
    }

    /// The retained values sorted best-first (ascending for `mink`,
    /// descending for `maxk`).
    pub fn best_first(&self) -> Vec<T> {
        let mut v = self.values.clone();
        v.reverse();
        v
    }
}

/// The `mink` operator: reduces an ordered set of `T` to its `k` smallest
/// values. Output is the k values in ascending order (best first); slots
/// never filled by a real input remain at the identity `T::MAX_VALUE`.
#[derive(Debug, Clone, Copy)]
pub struct MinK<T> {
    k: usize,
    _elem: std::marker::PhantomData<T>,
}

impl<T> MinK<T> {
    /// Creates a `mink` operator retaining `k ≥ 1` values.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "mink needs k >= 1");
        MinK {
            k,
            _elem: std::marker::PhantomData,
        }
    }
}

/// The `maxk` operator: the `k` largest values, in descending order.
#[derive(Debug, Clone, Copy)]
pub struct MaxK<T> {
    k: usize,
    _elem: std::marker::PhantomData<T>,
}

impl<T> MaxK<T> {
    /// Creates a `maxk` operator retaining `k ≥ 1` values.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "maxk needs k >= 1");
        MaxK {
            k,
            _elem: std::marker::PhantomData,
        }
    }
}

/// Bubble insertion shared by both directions. `better(a, b)` answers "is
/// `a` strictly better than `b`?" (smaller for `mink`, larger for `maxk`).
/// The state invariant is worst-first order: `v[0]` is the worst retained
/// value, so a new element only enters by beating `v[0]`.
#[inline]
fn bubble_insert<T: Copy>(v: &mut [T], x: T, better: impl Fn(&T, &T) -> bool) {
    if better(&x, &v[0]) {
        v[0] = x;
        // Restore worst-first order by sifting the new value toward the
        // back while it is better than its successor (paper Listing 1
        // lines 12–17: `if (v2[j-1] < v2[j]) swap`).
        for j in 1..v.len() {
            if better(&v[j - 1], &v[j]) {
                v.swap(j - 1, j);
            } else {
                break;
            }
        }
    }
}

/// Filtered block accumulate shared by both directions, bit-identical to
/// the per-element loop for every input: an element changes the state only
/// if it is strictly better than the worst retained value `v[0]`, so a
/// [`BLOCK`] holding no such element is skipped whole, and in any other
/// the same test, against a `worst` kept in a register, guards
/// [`bubble_insert`] element by element. The question goes to
/// [`any_in_block`], the filter `TopBottomK` asks too; here it is strict —
/// there is no location tie-break to leave to the insert — so a run of
/// values equal to the worst costs nothing, and an unordered value (NaN) is
/// never better, in the filter as in the insert. The granule is a whole
/// [`BLOCK`] because the input streams from memory and hits are rare —
/// about `k·ln(n/k)` in `n` unordered elements.
#[inline]
fn accum_filtered<T: Copy>(v: &mut [T], run: &[T], better: impl Fn(&T, &T) -> bool + Copy) {
    for block in run.chunks(BLOCK) {
        // Re-read after every insert: each can only tighten it.
        let mut worst = v[0];
        if any_in_block(block, |x| better(&x, &worst)) {
            for &x in block {
                if better(&x, &worst) {
                    bubble_insert(v, x, better);
                    worst = v[0];
                }
            }
        }
    }
}

impl<T: Bounded> ReduceScanOp for MinK<T>
where
    T: Copy + PartialOrd,
{
    type In = T;
    type State = KBest<T>;
    type Out = Vec<T>;

    fn ident(&self) -> KBest<T> {
        KBest {
            values: vec![T::MAX_VALUE; self.k],
        }
    }

    fn accum(&self, state: &mut KBest<T>, x: &T) {
        bubble_insert(&mut state.values, *x, |a, b| a < b);
    }

    fn accum_block(&self, state: &mut KBest<T>, block: &[T]) -> bool {
        accum_filtered(&mut state.values, block, |a, b| a < b);
        true
    }

    fn combine(&self, earlier: &mut KBest<T>, later: KBest<T>) {
        for x in later.values {
            self.accum(earlier, &x);
        }
    }

    fn red_gen(&self, state: KBest<T>) -> Vec<T> {
        state.best_first()
    }

    fn scan_gen(&self, state: &KBest<T>, _x: &T) -> Vec<T> {
        state.best_first()
    }

    fn wire_size(&self, _state: &KBest<T>) -> usize {
        self.k * std::mem::size_of::<T>()
    }

    fn combine_ops(&self, _incoming: &KBest<T>) -> u64 {
        // Combining replays the incoming k values through accumulation.
        self.k as u64
    }
}

impl<T: Bounded> ReduceScanOp for MaxK<T>
where
    T: Copy + PartialOrd,
{
    type In = T;
    type State = KBest<T>;
    type Out = Vec<T>;

    fn ident(&self) -> KBest<T> {
        KBest {
            values: vec![T::MIN_VALUE; self.k],
        }
    }

    fn accum(&self, state: &mut KBest<T>, x: &T) {
        bubble_insert(&mut state.values, *x, |a, b| a > b);
    }

    fn accum_block(&self, state: &mut KBest<T>, block: &[T]) -> bool {
        accum_filtered(&mut state.values, block, |a, b| a > b);
        true
    }

    fn combine(&self, earlier: &mut KBest<T>, later: KBest<T>) {
        for x in later.values {
            self.accum(earlier, &x);
        }
    }

    fn red_gen(&self, state: KBest<T>) -> Vec<T> {
        state.best_first()
    }

    fn scan_gen(&self, state: &KBest<T>, _x: &T) -> Vec<T> {
        state.best_first()
    }

    fn wire_size(&self, _state: &KBest<T>) -> usize {
        self.k * std::mem::size_of::<T>()
    }

    fn combine_ops(&self, _incoming: &KBest<T>) -> u64 {
        // Combining replays the incoming k values through accumulation.
        self.k as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScanKind;
    use crate::seq;

    #[test]
    fn mink_on_paper_set() {
        let set: [i64; 10] = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3];
        assert_eq!(seq::reduce(&MinK::new(3), &set), vec![2, 3, 3]);
        assert_eq!(seq::reduce(&MaxK::new(3), &set), vec![8, 8, 8]);
    }

    #[test]
    fn mink_matches_sort_oracle() {
        let data: Vec<i32> = (0..200).map(|i| (i * 37 + 11) % 101 - 50).collect();
        for k in [1usize, 2, 5, 10, 50] {
            let got: Vec<i32> = seq::reduce(&MinK::new(k), &data);
            let mut oracle = data.clone();
            oracle.sort();
            oracle.truncate(k);
            assert_eq!(got, oracle, "k={k}");
        }
    }

    #[test]
    fn maxk_matches_sort_oracle() {
        let data: Vec<i32> = (0..150).map(|i| (i * 53 + 7) % 97 - 40).collect();
        for k in [1usize, 3, 8, 20] {
            let got: Vec<i32> = seq::reduce(&MaxK::new(k), &data);
            let mut oracle = data.clone();
            oracle.sort_by(|a, b| b.cmp(a));
            oracle.truncate(k);
            assert_eq!(got, oracle, "k={k}");
        }
    }

    #[test]
    fn fewer_inputs_than_k_pads_with_identity() {
        let got = seq::reduce(&MinK::new(4), &[5i32, 1]);
        assert_eq!(got, vec![1, 5, i32::MAX, i32::MAX]);
    }

    #[test]
    fn duplicates_are_kept() {
        let got = seq::reduce(&MinK::new(3), &[2i32, 2, 2, 9]);
        assert_eq!(got, vec![2, 2, 2]);
    }

    #[test]
    fn combine_merges_two_runs() {
        use crate::op::{accumulate_block, ReduceScanOp};
        let op = MinK::new(3);
        let mut a = op.ident();
        accumulate_block(&op, &mut a, &[9i32, 1, 8]);
        let mut b = op.ident();
        accumulate_block(&op, &mut b, &[0, 7, 2]);
        op.combine(&mut a, b);
        assert_eq!(op.red_gen(a), vec![0, 1, 2]);
    }

    #[test]
    fn mink_scan_is_prefix_topk() {
        let data = [5i32, 3, 9, 1];
        let got = seq::scan(&MinK::new(2), &data, ScanKind::Inclusive);
        assert_eq!(
            got,
            vec![vec![5, i32::MAX], vec![3, 5], vec![3, 5], vec![1, 3],]
        );
    }

    #[test]
    fn parallel_mink_matches_sequential() {
        let pool = gv_executor::Pool::new(2);
        let data: Vec<i64> = (0..500).map(|i| (i * 67 + 13) % 499).collect();
        let op = MinK::new(10);
        let expected = seq::reduce(&op, &data);
        for parts in [1, 2, 7, 32] {
            assert_eq!(crate::par::reduce(&pool, parts, &op, &data), expected);
        }
    }
}
