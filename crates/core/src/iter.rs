//! What an accumulate phase reads: one trait, [`Input`], for the three
//! shapes an input takes.
//!
//! The paper's accumulate phase is one loop over whatever the
//! programmer's RSMPI iterator describes. Here it is
//! [`Input::accumulate`] — `pre_accum` on the first element, the
//! operator's block kernel, `post_accum` on the last — and every
//! reduction ([`crate::seq::reduce`], `gv_rsmpi::reduce_all`) takes any
//! input, which decides how its elements reach the kernel:
//!
//! - a **slice** (`&[In]`, `&Vec<In>`, `&[In; N]`) in one kernel call;
//! - a [`Staged`] **stream** through one reused [`BLOCK`]-element buffer,
//!   a kernel call per full buffer. A kernel that regroups floats
//!   (`sum::<f64>`) folds a stream in `BLOCK`-element groups; those that
//!   regroup block by block on their own (`MeanVar`'s, `accum_runs`) cut a
//!   slice at the same `BLOCK`, so they, like every regrouping-invariant
//!   operator, give a stream and a slice the same state bit for bit;
//! - a [`Located`] run of values and the location of the first, element
//!   `i` the pair `(values[i], first + i)` — the paper's
//!   `[i in 1..n] (A(i), i)` (Listing 5) with no pair in memory: the
//!   operator's [`ValueGate`] judges the bare values and a pair is built
//!   only where it says yes. The values are borrowed or [`Generated`] a
//!   window at a time ([`ValueSource`]), so NAS MG's random grid is
//!   reduced without ever being stored.
//!
//! Scans take a slice only: the rescan reads its input a second time.

use std::ops::Add;

use crate::kernel::{accum_gated, note_kernel_block, ValueGate, BLOCK};
use crate::op::{accumulate_block, accumulate_run, ReduceScanOp};

/// An input to the accumulate phase of paper Listing 2: a slice, a
/// [`Staged`] stream or a [`Located`] run of values.
pub trait Input<Op: ReduceScanOp + ?Sized> {
    /// Accumulates every element into `state` — `pre_accum` on the first,
    /// the operator's block kernel, `post_accum` on the last, neither hook
    /// for an empty input — and returns the number of elements (what the
    /// message-passing layer charges to the virtual clock).
    fn accumulate(self, op: &Op, state: &mut Op::State) -> u64;

    /// The elements, when they are stored as one slice, for a reader that
    /// needs them more than once (a counting state's slot indices,
    /// [`crate::op::ElementwiseState`]); `None` (the default) for an input
    /// that is read once.
    fn as_slice(&self) -> Option<&[Op::In]> {
        None
    }
}

/// A slice is one kernel call, read in place.
impl<Op: ReduceScanOp + ?Sized> Input<Op> for &[Op::In] {
    fn accumulate(self, op: &Op, state: &mut Op::State) -> u64 {
        accumulate_block(op, state, self);
        self.len() as u64
    }

    fn as_slice(&self) -> Option<&[Op::In]> {
        Some(self)
    }
}

impl<Op: ReduceScanOp + ?Sized> Input<Op> for &Vec<Op::In> {
    fn accumulate(self, op: &Op, state: &mut Op::State) -> u64 {
        Input::<Op>::accumulate(self.as_slice(), op, state)
    }

    fn as_slice(&self) -> Option<&[Op::In]> {
        Some(self)
    }
}

impl<Op: ReduceScanOp + ?Sized, const N: usize> Input<Op> for &[Op::In; N] {
    fn accumulate(self, op: &Op, state: &mut Op::State) -> u64 {
        Input::<Op>::accumulate(self.as_slice(), op, state)
    }

    fn as_slice(&self) -> Option<&[Op::In]> {
        Some(*self)
    }
}

/// A stream of elements, staged through one reused buffer of at most
/// [`BLOCK`] elements whatever its length, each full buffer one kernel
/// call. The iterator is never polled again after its first `None`, so it
/// need not be fused.
pub struct Staged<I>(pub I);

impl<Op, I> Input<Op> for Staged<I>
where
    Op: ReduceScanOp + ?Sized,
    I: IntoIterator<Item = Op::In>,
{
    fn accumulate(self, op: &Op, state: &mut Op::State) -> u64 {
        let mut iter = self.0.into_iter();
        let mut next = iter.next();
        let Some(first) = &next else {
            return 0;
        };
        op.pre_accum(state, first);
        let mut count = 0u64;
        // Grows to at most `BLOCK` elements, and only as far as the stream does.
        let mut block: Vec<Op::In> = Vec::new();
        while let Some(head) = next.take() {
            block.clear();
            block.push(head);
            // `take` stops at the first `None` or at a full block, whichever
            // comes first; only a full block leaves the stream open to poll.
            block.extend(iter.by_ref().take(BLOCK - 1));
            accumulate_run(op, state, &block);
            count += block.len() as u64;
            if block.len() == BLOCK {
                next = iter.next();
            }
        }
        // The last staged block is kept until here, so no `In: Clone` bound.
        op.post_accum(
            state,
            block.last().expect("a non-empty stream staged a block"),
        );
        count
    }
}

/// Where a located input's values come from: a borrowed slice, read in
/// place, or a [`Generated`] stream, written a window at a time into one
/// reused buffer and never stored whole. [`Located`] takes either and runs
/// the same loop over the windows they hand it.
pub trait ValueSource<T> {
    /// Hands `each` the values in order, in windows of at most [`BLOCK`],
    /// every window but the last full.
    fn windows(self, each: impl FnMut(&[T]));
}

/// A slice (or anything that borrows as one) is read in place, one
/// `BLOCK` chunk at a time.
impl<T, S: AsRef<[T]>> ValueSource<T> for S {
    fn windows(self, mut each: impl FnMut(&[T])) {
        for window in self.as_ref().chunks(BLOCK) {
            each(window);
        }
    }
}

/// `len` values that `fill` writes on demand: each call fills the window
/// it is given with the next values of the stream (the NPB generator's
/// `Randlc::fill`), so the conceptual array never exists — what the
/// paper's RSMPI iterators describe. One [`BLOCK`]-element buffer is
/// allocated per pass, whatever `len`.
pub struct Generated<F> {
    len: usize,
    fill: F,
}

impl<F> Generated<F> {
    /// A stream of `len` values produced by successive calls of `fill`.
    pub fn new(len: usize, fill: F) -> Self {
        Generated { len, fill }
    }
}

impl<T: Copy + Default, F: FnMut(&mut [T])> ValueSource<T> for Generated<F> {
    fn windows(mut self, mut each: impl FnMut(&[T])) {
        let mut buffer = vec![T::default(); self.len.min(BLOCK)];
        let mut left = self.len;
        while left > 0 {
            let window = &mut buffer[..left.min(BLOCK)];
            (self.fill)(window);
            each(window);
            left -= window.len();
        }
    }
}

/// A located input: element `i` is the pair `(values[i], first + i)`,
/// and its state is the one [`Staged`] leaves over those pairs, bit for
/// bit. One state runs across all of the [`ValueSource`]'s windows, so the
/// gate a window closes stays closed for the next.
///
/// No pair is stored: the operator's [`ValueGate`] is asked about each
/// granule of the values through [`crate::kernel::any_in_block`], and a
/// pair is built only for a value the gate admits, the gate re-read after
/// every one. `pre_accum` sees the first pair and `post_accum` the last,
/// and the dispatch counters note one kernel block per window, as a
/// staged stream's blocks are noted.
pub struct Located<V, L> {
    values: V,
    first: L,
}

impl<V, L> Located<V, L> {
    /// The values of `values`, the first at location `first`.
    pub fn new(values: V, first: L) -> Self {
        Located { values, first }
    }
}

impl<Op, T, V, L> Input<Op> for Located<V, L>
where
    Op: ValueGate<T, In = (T, L)> + ?Sized,
    V: ValueSource<T>,
    T: Copy,
    L: Copy + Add<Output = L> + TryFrom<usize>,
{
    fn accumulate(self, op: &Op, state: &mut Op::State) -> u64 {
        let Located { values, first } = self;
        let at = |i: usize| {
            let offset =
                L::try_from(i).unwrap_or_else(|_| panic!("offset {i} overflows the location"));
            first + offset
        };
        let mut count = 0;
        let mut tail = None;
        values.windows(|window| {
            let Some(&last) = window.last() else {
                return;
            };
            if count == 0 {
                op.pre_accum(state, &(window[0], first));
            }
            let base = count;
            accum_gated(op, state, window, |x| x, |i, x| (x, at(base + i)));
            note_kernel_block();
            count += window.len();
            tail = Some(last);
        });
        if let Some(tail) = tail {
            op.post_accum(state, &(tail, at(count - 1)));
        }
        count as u64
    }
}

/// Reduces the values of an iterator: [`crate::seq::reduce`] over
/// [`Staged`] values.
pub fn reduce_iter<Op, I>(op: &Op, values: I) -> Op::Out
where
    Op: ReduceScanOp + ?Sized,
    I: IntoIterator<Item = Op::In>,
{
    crate::seq::reduce(op, Staged(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::builtin::sum;
    use crate::ops::mink::MinK;
    use crate::ops::sorted::Sorted;
    use crate::seq;

    /// Lengths around the staging seams: empty, one element, a short
    /// final block, exactly one block, one element into a second block,
    /// exactly two blocks.
    const SEAM_LENGTHS: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK];

    /// Yields `0..len`, then `None` once; a further poll is a bug in the
    /// caller (a non-fused iterator may do anything there) and panics.
    struct PollOnce {
        next: u64,
        len: u64,
        finished: bool,
    }

    impl Iterator for PollOnce {
        type Item = u64;
        fn next(&mut self) -> Option<u64> {
            assert!(!self.finished, "polled again after returning None");
            if self.next == self.len {
                self.finished = true;
                return None;
            }
            self.next += 1;
            Some(self.next - 1)
        }
    }

    #[test]
    fn the_stream_is_never_polled_after_its_first_none() {
        for len in SEAM_LENGTHS {
            let len = len as u64;
            let stream = PollOnce {
                next: 0,
                len,
                finished: false,
            };
            let mut total = 0;
            assert_eq!(Staged(stream).accumulate(&sum::<u64>(), &mut total), len);
            assert_eq!(total, len * len.saturating_sub(1) / 2, "len={len}");
        }
    }

    #[test]
    fn hooks_see_the_first_and_last_element_of_the_whole_stream() {
        /// State: `(pre calls, first seen, accum calls, post calls, last seen)`.
        struct Hooks;
        impl ReduceScanOp for Hooks {
            type In = u64;
            type State = (u32, u64, u64, u32, u64);
            type Out = Self::State;
            fn ident(&self) -> Self::State {
                (0, u64::MAX, 0, 0, u64::MAX)
            }
            fn pre_accum(&self, s: &mut Self::State, x: &u64) {
                assert_eq!(s.2, 0, "pre_accum must run before any accum");
                s.0 += 1;
                s.1 = *x;
            }
            fn accum(&self, s: &mut Self::State, _x: &u64) {
                s.2 += 1;
            }
            fn post_accum(&self, s: &mut Self::State, x: &u64) {
                s.3 += 1;
                s.4 = *x;
            }
            fn combine(&self, _a: &mut Self::State, _b: Self::State) {
                unreachable!("a streamed accumulate never combines")
            }
            fn red_gen(&self, s: Self::State) -> Self::Out {
                s
            }
            fn scan_gen(&self, s: &Self::State, _x: &u64) -> Self::Out {
                *s
            }
        }
        for len in SEAM_LENGTHS {
            let len = len as u64;
            let got = reduce_iter(&Hooks, 0..len);
            let expected = if len == 0 {
                Hooks.ident()
            } else {
                (1, 0, len, 1, len - 1)
            };
            assert_eq!(got, expected, "len={len}");
        }
    }

    #[test]
    fn a_located_input_shows_its_hooks_the_first_and_last_pair() {
        /// State: `(pre at, accum calls, post at)`; a gate that never
        /// closes, so every element is built and accumulated.
        struct Hooks;
        impl ReduceScanOp for Hooks {
            type In = (u8, u64);
            type State = (u64, u64, u64);
            type Out = Self::State;
            fn ident(&self) -> Self::State {
                (u64::MAX, 0, u64::MAX)
            }
            fn pre_accum(&self, s: &mut Self::State, x: &(u8, u64)) {
                assert_eq!(s.1, 0, "pre_accum must run before any accum");
                s.0 = x.1;
            }
            fn accum(&self, s: &mut Self::State, x: &(u8, u64)) {
                assert_eq!(x.1, 7 + s.1, "element i sits at first + i");
                s.1 += 1;
            }
            fn post_accum(&self, s: &mut Self::State, x: &(u8, u64)) {
                s.2 = x.1;
            }
            fn combine(&self, _a: &mut Self::State, _b: Self::State) {
                unreachable!("a located accumulate never combines")
            }
            fn red_gen(&self, s: Self::State) -> Self::Out {
                s
            }
            fn scan_gen(&self, s: &Self::State, _x: &(u8, u64)) -> Self::Out {
                *s
            }
        }
        impl ValueGate<u8> for Hooks {
            type Gate = ();
            fn gate(&self, _s: &Self::State) -> Option<()> {
                None
            }
            fn admits(_gate: (), _x: u8) -> bool {
                unreachable!("the gate never closes")
            }
        }
        for len in SEAM_LENGTHS {
            let values = vec![0u8; len];
            let mut state = Hooks.ident();
            let count = Located::new(&values, 7u64).accumulate(&Hooks, &mut state);
            assert_eq!(count, len as u64);
            let len = len as u64;
            let expected = if len == 0 {
                Hooks.ident()
            } else {
                (7, len, 6 + len)
            };
            assert_eq!(state, expected, "len={len}");
        }
    }

    #[test]
    fn staged_blocks_reach_the_kernel_counters() {
        let (k0, s0) = crate::kernel::dispatch_counts();
        reduce_iter(&sum::<u64>(), 0..(2 * BLOCK as u64));
        let (k1, _) = crate::kernel::dispatch_counts();
        assert!(
            k1 >= k0 + 2,
            "a kernel-backed op takes each staged block through its kernel"
        );
        reduce_iter(&Sorted::<u64>::new(), 0..(2 * BLOCK as u64));
        let (_, s1) = crate::kernel::dispatch_counts();
        assert!(
            s1 >= s0 + 2,
            "an op without a kernel is noted as scalar, block by block"
        );
    }

    #[test]
    fn reduce_iter_matches_slice_reduce() {
        let data: Vec<i64> = (0..300).map(|i| (i * 37) % 101 - 50).collect();
        assert_eq!(
            reduce_iter(&sum::<i64>(), data.iter().copied()),
            seq::reduce(&sum::<i64>(), &data)
        );
        assert_eq!(
            reduce_iter(&MinK::<i64>::new(5), data.iter().copied()),
            seq::reduce(&MinK::<i64>::new(5), &data)
        );
    }

    #[test]
    fn reduce_iter_applies_hooks() {
        // Sorted relies on pre_accum; it must behave identically streamed.
        let sorted: Vec<i32> = (0..50).collect();
        assert!(reduce_iter(&Sorted::new(), sorted.iter().copied()));
        let mut unsorted = sorted.clone();
        unsorted.swap(20, 30);
        assert!(!reduce_iter(&Sorted::new(), unsorted.iter().copied()));
    }

    #[test]
    fn reduce_iter_over_generated_stream() {
        // No allocation of the conceptual array: reduce a mapped range.
        let total = reduce_iter(&sum::<u64>(), (1..=1000u64).map(|i| i * i));
        assert_eq!(total, 1000 * 1001 * 2001 / 6);
    }

    #[test]
    fn empty_iterators() {
        assert_eq!(reduce_iter(&sum::<i64>(), std::iter::empty()), 0);
    }
}
