//! Sequential reference engine.
//!
//! These are Listings 2 and 3 of the paper specialized to `p = 1`. Every
//! other engine in the repository (shared-memory, message-passing) is
//! property-tested against this one: for associative operators they must
//! produce identical results for every chunking/rank decomposition.

use crate::iter::Input;
use crate::op::{rescan_block, ReduceScanOp, ScanKind};

/// Reduces `input` — a slice, a [`crate::iter::Staged`] stream or a
/// [`crate::iter::Located`] run — with `op`, sequentially.
///
/// An empty input yields `red_gen(ident())`, the natural generalization of
/// the paper's `if n > 0` guards.
pub fn reduce<Op: ReduceScanOp + ?Sized>(op: &Op, input: impl Input<Op>) -> Op::Out {
    let mut state = op.ident();
    input.accumulate(op, &mut state);
    op.red_gen(state)
}

/// Scans `input` with `op`, sequentially, producing one output per element.
///
/// Follows Listing 3 lines 10–13: for an exclusive scan each position is
/// generated *before* its element is accumulated; interchanging the two
/// steps (as the paper describes) yields the inclusive scan. The
/// `pre_accum`/`post_accum` hooks do not participate in the rescan loop —
/// they only ever run in the accumulate phase that feeds the cross-processor
/// combine, which at `p = 1` is vacuous.
pub fn scan<Op: ReduceScanOp + ?Sized>(op: &Op, input: &[Op::In], kind: ScanKind) -> Vec<Op::Out> {
    let mut state = op.ident();
    let mut out = Vec::with_capacity(input.len());
    rescan_block(op, &mut state, input, kind, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{Monoid, MonoidOp};

    struct Add;
    impl Monoid for Add {
        type T = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn combine(&self, a: &mut i64, b: &i64) {
            *a += *b;
        }
    }

    /// The paper's running example: the ordered set from §1.
    const PAPER_SET: [i64; 10] = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3];

    #[test]
    fn paper_sum_reduction_is_55() {
        assert_eq!(reduce(&MonoidOp(Add), &PAPER_SET), 55);
    }

    #[test]
    fn paper_inclusive_scan() {
        let got = scan(&MonoidOp(Add), &PAPER_SET, ScanKind::Inclusive);
        assert_eq!(got, vec![6, 13, 19, 22, 30, 32, 40, 44, 52, 55]);
    }

    #[test]
    fn paper_exclusive_scan() {
        let got = scan(&MonoidOp(Add), &PAPER_SET, ScanKind::Exclusive);
        assert_eq!(got, vec![0, 6, 13, 19, 22, 30, 32, 40, 44, 52]);
    }

    #[test]
    fn inclusive_scan_derivable_from_exclusive() {
        // Paper §1: inclusive[i] = exclusive[i] ⊕ input[i].
        let ex = scan(&MonoidOp(Add), &PAPER_SET, ScanKind::Exclusive);
        let inc = scan(&MonoidOp(Add), &PAPER_SET, ScanKind::Inclusive);
        for i in 0..PAPER_SET.len() {
            assert_eq!(inc[i], ex[i] + PAPER_SET[i]);
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(reduce(&MonoidOp(Add), &[]), 0);
        assert!(scan(&MonoidOp(Add), &[], ScanKind::Inclusive).is_empty());
        assert!(scan(&MonoidOp(Add), &[], ScanKind::Exclusive).is_empty());
    }
}
