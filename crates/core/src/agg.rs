//! Aggregation: many reductions/scans computed simultaneously (paper §2.1).
//!
//! "Aggregation … allows the programmer to compute multiple reductions
//! simultaneously, thus saving the overhead of many smaller messages."
//!
//! The data model is a sequence of *rows*, each row holding one input
//! element per *slot* (the same slot count in every row). Slot `j` across
//! all rows forms an independent ordered set; an aggregated reduction
//! reduces every slot at once. The paper's example — the element-wise
//! minimums of per-processor integer arrays — is `reduce_elementwise` with
//! the `min` operator; the paper also notes the aggregation of *user*
//! operators ("the mink reduction can itself be aggregated"), which works
//! here unchanged because the functions are applied per slot.
//!
//! An aggregated reduction is not a second kind of reduction: it is the
//! ordinary one over the operator [`Elementwise`], so every engine that
//! takes an operator — [`crate::seq`], [`crate::par`], every `gv_rsmpi`
//! call — aggregates, and ships all slot states in one message, without a
//! line written for it. The two functions below are [`crate::seq`] on it.

use std::marker::PhantomData;

use crate::kernel::zip_slots;
use crate::op::{ReduceScanOp, ScanKind};

/// Lifts an operator over elements into the operator over *rows* of them
/// (`R`: a `&[In]`, a `Vec<In>`, …): one inner state per slot, the seven
/// functions applied per slot.
///
/// The width is fixed when the operator is made, not read off the rows: a
/// processor that holds no rows still starts from `width` identities, so
/// every processor's state has the same slots (and the same bytes on the
/// wire). Two states of different widths do not combine.
///
/// Each row accumulated and each state combined is one pass of
/// [`crate::kernel`]'s ISA-dispatched zip, and one kernel block in its
/// dispatch counters.
#[derive(Debug, Clone, Copy)]
pub struct Elementwise<Op, R> {
    op: Op,
    width: usize,
    rows: PhantomData<fn(&R)>,
}

impl<Op: ReduceScanOp, R: AsRef<[Op::In]>> Elementwise<Op, R> {
    /// `op` over rows of `width` slots.
    pub fn new(op: Op, width: usize) -> Self {
        let rows = PhantomData;
        Elementwise { op, width, rows }
    }

    /// `op` at the width of the first of `rows` (0 when there are none).
    pub fn for_rows(op: Op, rows: &[R]) -> Self {
        Self::new(op, rows.first().map_or(0, |r| r.as_ref().len()))
    }
}

impl<Op: ReduceScanOp, R: AsRef<[Op::In]>> ReduceScanOp for Elementwise<Op, R> {
    type In = R;
    type State = Vec<Op::State>;
    type Out = Vec<Op::Out>;

    const COMMUTATIVE: bool = Op::COMMUTATIVE;

    fn ident(&self) -> Self::State {
        (0..self.width).map(|_| self.op.ident()).collect()
    }

    fn pre_accum(&self, state: &mut Self::State, first: &R) {
        for (s, x) in state.iter_mut().zip(first.as_ref()) {
            self.op.pre_accum(s, x);
        }
    }

    fn accum(&self, state: &mut Self::State, row: &R) {
        let row = row.as_ref();
        assert_eq!(
            row.len(),
            self.width,
            "aggregated rows must have equal widths (expected {})",
            self.width
        );
        zip_slots(state, row, |s, x| self.op.accum(s, x));
    }

    fn post_accum(&self, state: &mut Self::State, last: &R) {
        for (s, x) in state.iter_mut().zip(last.as_ref()) {
            self.op.post_accum(s, x);
        }
    }

    fn combine(&self, earlier: &mut Self::State, later: Self::State) {
        assert_eq!(
            earlier.len(),
            later.len(),
            "aggregated reduction requires the same row width on every rank"
        );
        zip_slots(earlier, later, |a, b| self.op.combine(a, b));
    }

    fn red_gen(&self, state: Self::State) -> Self::Out {
        state.into_iter().map(|s| self.op.red_gen(s)).collect()
    }

    fn scan_gen(&self, state: &Self::State, row: &R) -> Self::Out {
        let slots = state.iter().zip(row.as_ref());
        slots.map(|(s, x)| self.op.scan_gen(s, x)).collect()
    }

    fn wire_size(&self, state: &Self::State) -> usize {
        state.iter().map(|s| self.op.wire_size(s)).sum()
    }

    fn accum_ops(&self) -> u64 {
        self.width as u64 * self.op.accum_ops()
    }

    fn combine_ops(&self, incoming: &Self::State) -> u64 {
        incoming.iter().map(|s| self.op.combine_ops(s)).sum()
    }
}

/// Element-wise aggregated reduction: reduces slot `j` of every row down to
/// output `j`.
pub fn reduce_elementwise<Op: ReduceScanOp + ?Sized>(op: &Op, rows: &[&[Op::In]]) -> Vec<Op::Out> {
    crate::seq::reduce(&Elementwise::for_rows(op, rows), rows)
}

/// Element-wise aggregated scan: output row `i`, slot `j` is the scan of
/// slot `j` over rows `0..=i` (inclusive) or `0..i` (exclusive).
pub fn scan_elementwise<Op: ReduceScanOp + ?Sized>(
    op: &Op,
    rows: &[&[Op::In]],
    kind: ScanKind,
) -> Vec<Vec<Op::Out>> {
    crate::seq::scan(&Elementwise::for_rows(op, rows), rows, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{Monoid, MonoidOp};
    use crate::seq;

    struct Min;
    impl Monoid for Min {
        type T = i32;
        fn identity(&self) -> i32 {
            i32::MAX
        }
        fn combine(&self, a: &mut i32, b: &i32) {
            if *b < *a {
                *a = *b;
            }
        }
    }

    #[test]
    fn elementwise_min_matches_paper_description() {
        // Paper §2.1: "the min reduction can be aggregated to compute the
        // element-wise minimums of the values in arrays of integers."
        let op = MonoidOp(Min);
        let rows: Vec<&[i32]> = vec![&[5, 1, 9], &[3, 4, 2], &[8, 0, 7]];
        assert_eq!(reduce_elementwise(&op, &rows), vec![3, 0, 2]);
    }

    #[test]
    fn aggregated_reduce_matches_per_slot_sequential() {
        let op = MonoidOp(Min);
        let data: Vec<Vec<i32>> = (0..6)
            .map(|r| (0..4).map(|c| ((r * 7 + c * 13) % 19) - 9).collect())
            .collect();
        let rows: Vec<&[i32]> = data.iter().map(|r| r.as_slice()).collect();
        let got = reduce_elementwise(&op, &rows);
        for slot in 0..4 {
            let column: Vec<i32> = data.iter().map(|r| r[slot]).collect();
            assert_eq!(got[slot], seq::reduce(&op, &column), "slot {slot}");
        }
    }

    #[test]
    fn aggregated_scan_matches_per_slot_sequential() {
        let op = MonoidOp(Min);
        let data: Vec<Vec<i32>> = (0..5)
            .map(|r| (0..3).map(|c| ((r * 5 + c * 11) % 17) - 8).collect())
            .collect();
        let rows: Vec<&[i32]> = data.iter().map(|r| r.as_slice()).collect();
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let got = scan_elementwise(&op, &rows, kind);
            for slot in 0..3 {
                let column: Vec<i32> = data.iter().map(|r| r[slot]).collect();
                let expected = seq::scan(&op, &column, kind);
                let got_column: Vec<i32> = got.iter().map(|r| r[slot]).collect();
                assert_eq!(got_column, expected, "slot {slot} kind {kind:?}");
            }
        }
    }

    #[test]
    fn empty_rows_yield_identity_outputs() {
        let op = MonoidOp(Min);
        let rows: Vec<&[i32]> = vec![];
        assert!(reduce_elementwise(&op, &rows).is_empty());
        assert!(scan_elementwise(&op, &rows, ScanKind::Inclusive).is_empty());
    }

    #[test]
    fn rows_without_slots_scan_to_rows_without_slots() {
        let rows: Vec<&[i32]> = vec![&[], &[]];
        assert!(reduce_elementwise(&MonoidOp(Min), &rows).is_empty());
        let scanned = scan_elementwise(&MonoidOp(Min), &rows, ScanKind::Exclusive);
        assert_eq!(scanned, vec![Vec::<i32>::new(); 2]);
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn ragged_rows_panic() {
        let op = MonoidOp(Min);
        let rows: Vec<&[i32]> = vec![&[1, 2], &[3]];
        reduce_elementwise(&op, &rows);
    }
}
