//! Iterator-driven reductions and scans.
//!
//! The paper's RSMPI call sites describe inputs with *iterators* ("the
//! programmer first defines an iterator to describe the values passed to
//! the accumulate function"); this module gives the sequential engine the
//! same shape, so operators can consume generated or transformed streams
//! without materializing them.
//!
//! A streamed reduction still reaches the block tier ([`crate::kernel`]):
//! [`accumulate_iter`] stages the stream through one reused buffer of
//! `BLOCK` elements and hands each full buffer to the operator's
//! `accum_block` kernel, exactly as the slice engines hand it a chunk. An
//! operator whose kernel regroups floats (`sum::<f64>`) therefore folds a
//! stream in `BLOCK`-element groups — [`crate::kernel::BLOCK`], pinned like
//! [`crate::kernel::LANES`] — while every regrouping-invariant operator
//! gives the per-element loop's result bit for bit. The kernels that
//! regroup block by block on their own (`MeanVar`'s, `accum_runs`) cut a
//! slice at the same `BLOCK`, so for them a stream and a slice agree bit
//! for bit as well.
//!
//! A stream of `(value, location)` pairs over consecutive locations is
//! better passed as what it is — a *located* input: a slice of values and
//! the location of the first, element `i` sitting at `first + i` (the
//! paper's `[i in 1..n] (A(i), i)`, Listing 5). [`accumulate_located`]
//! reads it with no pair in memory: an operator that can judge a value on
//! its own ([`ValueGate`]) is asked about the bare values, granule by
//! granule, and a pair is built only where its answer is yes. So the
//! accumulate phase has three input shapes — slice, stream and located —
//! and one state for the same elements in each.

use std::ops::Add;

use crate::kernel::{accum_gated, note_kernel_block, ValueGate, BLOCK};
use crate::op::{accumulate_run, ReduceScanOp, ScanKind};

/// The accumulate phase of paper Listing 2 over a streamed block: returns
/// the accumulated state and the number of elements consumed (what the
/// message-passing layer charges to the virtual clock).
///
/// `pre_accum` sees the first element and `post_accum` the last, as
/// [`crate::op::accumulate_block`] does for a slice; both are skipped for
/// an empty stream. The iterator is never polled again after its first
/// `None`, so it need not be fused, and memory use is one `BLOCK`-element
/// buffer whatever the stream's length.
pub fn accumulate_iter<Op, I>(op: &Op, values: I) -> (Op::State, u64)
where
    Op: ReduceScanOp + ?Sized,
    I: IntoIterator<Item = Op::In>,
{
    let mut state = op.ident();
    let mut iter = values.into_iter();
    let mut next = iter.next();
    let Some(first) = &next else {
        return (state, 0);
    };
    op.pre_accum(&mut state, first);
    let mut count = 0u64;
    // Grows to at most `BLOCK` elements, and only as far as the stream does.
    let mut block: Vec<Op::In> = Vec::new();
    while let Some(head) = next.take() {
        block.clear();
        block.push(head);
        // `take` stops at the first `None` or at a full block, whichever
        // comes first; only a full block leaves the stream open to poll.
        block.extend(iter.by_ref().take(BLOCK - 1));
        accumulate_run(op, &mut state, &block);
        count += block.len() as u64;
        if block.len() == BLOCK {
            next = iter.next();
        }
    }
    // The last staged block is kept until here, so no `In: Clone` bound.
    op.post_accum(
        &mut state,
        block.last().expect("a non-empty stream staged a block"),
    );
    (state, count)
}

/// The accumulate phase over a located input: element `i` is the pair
/// `(values[i], first + i)`, and the state is the one [`accumulate_iter`]
/// leaves over those pairs, bit for bit. Returns it and the number of
/// elements, as [`accumulate_iter`] does.
///
/// No pair is stored: the operator's [`ValueGate`] is asked about each
/// granule of `values` through [`crate::kernel::any_in_block`], and a pair
/// is built only for a value the gate admits, the gate re-read after every
/// one. `pre_accum` sees the first pair and `post_accum` the last, and the
/// dispatch counters note one kernel block per [`BLOCK`] values, as the
/// staged stream's blocks are noted.
pub fn accumulate_located<Op, T, L>(op: &Op, values: &[T], first: L) -> (Op::State, u64)
where
    Op: ValueGate<T, In = (T, L)> + ?Sized,
    T: Copy,
    L: Copy + Add<Output = L> + TryFrom<usize>,
{
    let mut state = op.ident();
    let (Some(&head), Some(&tail)) = (values.first(), values.last()) else {
        return (state, 0);
    };
    let at = |i: usize| {
        let offset = L::try_from(i).unwrap_or_else(|_| panic!("offset {i} overflows the location"));
        first + offset
    };
    op.pre_accum(&mut state, &(head, first));
    for (b, block) in values.chunks(BLOCK).enumerate() {
        let base = b * BLOCK;
        accum_gated(op, &mut state, block, |x| x, |i, x| (x, at(base + i)));
        note_kernel_block();
    }
    op.post_accum(&mut state, &(tail, at(values.len() - 1)));
    (state, values.len() as u64)
}

/// Reduces the values of an iterator (paper Listing 2 with a streamed
/// block).
pub fn reduce_iter<Op, I>(op: &Op, values: I) -> Op::Out
where
    Op: ReduceScanOp + ?Sized,
    I: IntoIterator<Item = Op::In>,
{
    op.red_gen(accumulate_iter(op, values).0)
}

/// Scans the values of an iterator lazily: yields one output per input,
/// on demand.
pub fn scan_iter<'a, Op, I>(
    op: &'a Op,
    values: I,
    kind: ScanKind,
) -> impl Iterator<Item = Op::Out> + 'a
where
    Op: ReduceScanOp + ?Sized,
    I: IntoIterator<Item = Op::In>,
    I::IntoIter: 'a,
{
    let mut state = op.ident();
    values.into_iter().map(move |x| match kind {
        ScanKind::Exclusive => {
            let out = op.scan_gen(&state, &x);
            op.accum(&mut state, &x);
            out
        }
        ScanKind::Inclusive => {
            op.accum(&mut state, &x);
            op.scan_gen(&state, &x)
        }
    })
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
            let (total, count) = accumulate_iter(&sum::<u64>(), stream);
            assert_eq!(count, len);
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
            let (state, count) = accumulate_located(&Hooks, &values, 7u64);
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
    fn scan_iter_is_lazy_and_correct() {
        let data: Vec<i64> = (1..=10).collect();
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let streamed: Vec<i64> = scan_iter(&sum::<i64>(), data.iter().copied(), kind).collect();
            assert_eq!(streamed, seq::scan(&sum::<i64>(), &data, kind));
        }
        // Laziness: taking a prefix only evaluates that prefix.
        let first3: Vec<i64> = scan_iter(&sum::<i64>(), 1i64.., ScanKind::Inclusive)
            .take(3)
            .collect();
        assert_eq!(first3, vec![1, 3, 6]);
    }

    #[test]
    fn empty_iterators() {
        assert_eq!(reduce_iter(&sum::<i64>(), std::iter::empty()), 0);
        assert_eq!(
            scan_iter(&sum::<i64>(), std::iter::empty(), ScanKind::Inclusive).count(),
            0
        );
    }
}
