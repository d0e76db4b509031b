//! The `TopBottomK` operator: the `k` largest *and* `k` smallest values
//! with their locations, in a single reduction.
//!
//! This is the operator the paper's NAS MG case study calls for (§4.2):
//! ZRAN3 needs "the ten largest numbers and their locations … along with
//! the ten smallest numbers and their locations", which the reference
//! F+MPI code obtains with *forty* built-in reductions and the F+RSMPI
//! version with "a single user-defined reduction, similar to the mink and
//! mini reductions".
//!
//! `accum` is two best-first inserts. The block kernel (`accum_block`)
//! gives the per-element loop's state bit for bit at a fraction of its
//! cost: once both lists are full an element matters only if its value
//! reaches a list's worst, which is rare — about `k·ln(n/k)` times per side
//! in `n` unordered elements — so the kernel asks
//! [`crate::kernel::any_in_block`], the ISA-dispatched filter `MinK`/`MaxK`
//! ask too, about 128 pairs at a time and looks closer only where it says
//! yes. ZRAN3 streams 2²⁰ cells per rank through it.

use crate::kernel::any_in_block;
use crate::op::ReduceScanOp;
use crate::split::{split_vec_segments, SplittableState};

/// One retained extremum: a value and where it was found.
pub type Entry<T, L> = (T, L);

/// State of a [`TopBottomK`] reduction: two best-first lists.
#[derive(Debug, Clone, PartialEq)]
pub struct TopBottomState<T, L> {
    /// The up-to-`k` largest entries, best (largest) first.
    pub top: Vec<Entry<T, L>>,
    /// The up-to-`k` smallest entries, best (smallest) first.
    pub bottom: Vec<Entry<T, L>>,
}

/// Result of a [`TopBottomK`] reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct TopBottom<T, L> {
    /// The `k` largest entries in descending value order.
    pub largest: Vec<Entry<T, L>>,
    /// The `k` smallest entries in ascending value order.
    pub smallest: Vec<Entry<T, L>>,
}

/// The `TopBottomK` operator over `(value, location)` pairs.
///
/// Tie-breaking is deterministic: equal values prefer the smaller
/// location, so results are independent of the processor decomposition.
#[derive(Debug, Clone, Copy)]
pub struct TopBottomK<T, L> {
    k: usize,
    _marker: std::marker::PhantomData<(T, L)>,
}

impl<T, L> TopBottomK<T, L> {
    /// Creates the operator retaining `k ≥ 1` extrema on each side.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "TopBottomK needs k >= 1");
        TopBottomK {
            k,
            _marker: std::marker::PhantomData,
        }
    }

    /// The number of extrema kept per side.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Orders entries for the `top` list: larger values first, then smaller
/// locations.
#[inline]
fn top_precedes<T: PartialOrd, L: Ord>(a: &Entry<T, L>, b: &Entry<T, L>) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Orders entries for the `bottom` list: smaller values first, then smaller
/// locations.
#[inline]
fn bottom_precedes<T: PartialOrd, L: Ord>(a: &Entry<T, L>, b: &Entry<T, L>) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Inserts `x` into the best-first list `list` (capacity `k`), keeping it
/// sorted by `precedes`.
#[inline]
fn insert_best_first<T: Copy, L: Copy>(
    list: &mut Vec<Entry<T, L>>,
    k: usize,
    x: Entry<T, L>,
    precedes: impl Fn(&Entry<T, L>, &Entry<T, L>) -> bool,
) {
    if list.len() == k {
        // Full: x must beat the current worst (the tail).
        let worst = list.last().expect("k >= 1");
        if !precedes(&x, worst) {
            return;
        }
        list.pop();
    }
    let position = list
        .iter()
        .position(|e| precedes(&x, e))
        .unwrap_or(list.len());
    list.insert(position, x);
}

/// Pairs the [`TopBottomK`] block kernel asks [`any_in_block`] about at a
/// time: long enough that the dispatched compare loop amortizes its call
/// and its final reduction, short enough that a fresh state, which is hit
/// often, still skips most of a short input (64 reads 15 % ahead on 4096
/// pairs and 5–10 % behind on ZRAN3's 2²⁰, 256 the reverse; EXPERIMENTS.md,
/// TXT-ZRAN3).
const FILTER_GRANULE: usize = 128;

/// Whether `x` could enter a full `top` list whose worst value is `hi` or a
/// full `bottom` list whose worst value is `lo`. Non-strict on purpose: a
/// value equal to the worst may still win its location tie-break, which
/// only the exact insert decides. Branch-free; an unordered value (NaN)
/// compares false both ways, exactly as it does in
/// [`top_precedes`]/[`bottom_precedes`].
#[inline]
fn may_enter<T: PartialOrd, L>(x: &Entry<T, L>, (hi, lo): &(T, T)) -> bool {
    (x.0 >= *hi) | (x.0 <= *lo)
}

impl<T, L> ReduceScanOp for TopBottomK<T, L>
where
    T: Copy + PartialOrd + std::fmt::Debug,
    L: Copy + Ord + std::fmt::Debug,
{
    type In = (T, L);
    type State = TopBottomState<T, L>;
    type Out = TopBottom<T, L>;

    fn ident(&self) -> Self::State {
        TopBottomState {
            top: Vec::with_capacity(self.k),
            bottom: Vec::with_capacity(self.k),
        }
    }

    fn accum(&self, state: &mut Self::State, x: &(T, L)) {
        insert_best_first(&mut state.top, self.k, *x, top_precedes);
        insert_best_first(&mut state.bottom, self.k, *x, bottom_precedes);
    }

    /// Filtered block accumulate, bit-identical to the per-element loop
    /// for every input. Once both lists hold `k` entries an element changes
    /// the state only if it beats a list's worst entry, so a granule in
    /// which [`any_in_block`] finds no value reaching either worst *value*
    /// (`may_enter`) is skipped whole, and in any other the same test,
    /// element by element, guards the exact insert.
    fn accum_block(&self, state: &mut Self::State, block: &[(T, L)]) -> bool {
        let mut rest = block;
        while state.top.len() != self.k || state.bottom.len() != self.k {
            let Some((x, tail)) = rest.split_first() else {
                return true;
            };
            self.accum(state, x);
            rest = tail;
        }
        let worst = |s: &Self::State| (s.top[self.k - 1].0, s.bottom[self.k - 1].0);
        for granule in rest.chunks(FILTER_GRANULE) {
            // Re-read after every insert: each can only tighten them.
            let mut bounds = worst(state);
            if !any_in_block(granule, |x| may_enter(&x, &bounds)) {
                continue;
            }
            for x in granule {
                if may_enter(x, &bounds) {
                    self.accum(state, x);
                    bounds = worst(state);
                }
            }
        }
        true
    }

    fn combine(&self, earlier: &mut Self::State, later: Self::State) {
        for x in later.top {
            insert_best_first(&mut earlier.top, self.k, x, top_precedes);
        }
        for x in later.bottom {
            insert_best_first(&mut earlier.bottom, self.k, x, bottom_precedes);
        }
    }

    fn red_gen(&self, state: Self::State) -> Self::Out {
        TopBottom {
            largest: state.top,
            smallest: state.bottom,
        }
    }

    fn scan_gen(&self, state: &Self::State, _x: &(T, L)) -> Self::Out {
        TopBottom {
            largest: state.top.clone(),
            smallest: state.bottom.clone(),
        }
    }

    fn wire_size(&self, state: &Self::State) -> usize {
        (state.top.len() + state.bottom.len()) * std::mem::size_of::<Entry<T, L>>()
            + 2 * std::mem::size_of::<usize>()
    }

    fn combine_ops(&self, incoming: &Self::State) -> u64 {
        (incoming.top.len() + incoming.bottom.len()).max(1) as u64
    }
}

/// Top-k states split by chunking each best-first list: a global top-`k`
/// entry is beaten by at most `k − 1` entries *anywhere*, so it survives
/// the capped per-segment combine of whichever segment its chunk lands
/// in, and the merge-on-unsplit recovers the exact global lists (the
/// deterministic tie-break keeps the result canonical). Segment lengths
/// may differ across ranks — the combine never assumes alignment.
impl<T, L> SplittableState for TopBottomK<T, L>
where
    T: Copy + PartialOrd + std::fmt::Debug,
    L: Copy + Ord + std::fmt::Debug,
{
    fn split_state(&self, state: Self::State, parts: usize) -> Vec<Self::State> {
        let tops = split_vec_segments(state.top, parts);
        let bottoms = split_vec_segments(state.bottom, parts);
        tops.into_iter()
            .zip(bottoms)
            .map(|(top, bottom)| TopBottomState { top, bottom })
            .collect()
    }

    fn unsplit_state(&self, segments: Vec<Self::State>) -> Self::State {
        let mut whole = self.ident();
        for seg in segments {
            self.combine(&mut whole, seg);
        }
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    fn sample() -> Vec<(f64, u64)> {
        (0..100u64)
            .map(|i| ((((i * 193) % 101) as f64) / 101.0, i))
            .collect()
    }

    fn oracle(data: &[(f64, u64)], k: usize) -> TopBottom<f64, u64> {
        let mut asc = data.to_vec();
        asc.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let smallest = asc.iter().take(k).copied().collect();
        let mut desc = data.to_vec();
        desc.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let largest = desc.iter().take(k).copied().collect();
        TopBottom { largest, smallest }
    }

    #[test]
    fn matches_sort_oracle() {
        let data = sample();
        for k in [1usize, 3, 10] {
            let got = seq::reduce(&TopBottomK::new(k), &data);
            assert_eq!(got, oracle(&data, k), "k={k}");
        }
    }

    #[test]
    fn short_input_returns_partial_lists() {
        let data = vec![(2.0f64, 7u64), (5.0, 3)];
        let got = seq::reduce(&TopBottomK::new(10), &data);
        assert_eq!(got.largest, vec![(5.0, 3), (2.0, 7)]);
        assert_eq!(got.smallest, vec![(2.0, 7), (5.0, 3)]);
    }

    #[test]
    fn ties_prefer_smaller_location_regardless_of_order() {
        let mut data = vec![(1.0f64, 9u64), (1.0, 2), (1.0, 5)];
        let a = seq::reduce(&TopBottomK::new(2), &data);
        data.reverse();
        let b = seq::reduce(&TopBottomK::new(2), &data);
        assert_eq!(a, b);
        assert_eq!(a.largest, vec![(1.0, 2), (1.0, 5)]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = gv_executor::Pool::new(2);
        let data = sample();
        let op = TopBottomK::new(10);
        let expected = seq::reduce(&op, &data);
        for parts in [1, 2, 5, 16, 100, 128] {
            assert_eq!(crate::par::reduce(&pool, parts, &op, &data), expected);
        }
    }

    #[test]
    fn top_and_bottom_overlap_when_k_exceeds_n() {
        let data = vec![(3.0f64, 0u64), (1.0, 1), (2.0, 2)];
        let got = seq::reduce(&TopBottomK::new(5), &data);
        assert_eq!(got.largest.len(), 3);
        assert_eq!(got.smallest.len(), 3);
        assert_eq!(got.largest[0], (3.0, 0));
        assert_eq!(got.smallest[0], (1.0, 1));
    }
}
