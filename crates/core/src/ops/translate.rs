//! The "translate" formulation — the design alternative the paper rejects.
//!
//! Paper §3: "Alternative functions that *translate* the input values into
//! state values rather than *accumulate* the input values into state values
//! would result in worse performance."
//!
//! [`Translated`] wraps any operator and reroutes its accumulate function
//! through translation: each input element is first lifted into a fresh
//! state (`ident` + one `accum`) and then `combine`d onto the running
//! state. Results are identical by the accumulate/combine coherence law;
//! the cost is one identity construction plus one full state combine per
//! element — for `mink`, O(k) per element where direct accumulation is
//! O(1) in the common case. The `translate/*` rows of `kernel_microbench`
//! (experiment TXT-TRANSLATE) measure exactly this gap. For that reason
//! [`Translated`] deliberately does *not* forward the wrapped operator's
//! `accum_block` kernel: it stays on the per-element loop, so the ablation
//! keeps comparing one accumulate against one translate-and-combine rather
//! than a block kernel against itself.

use crate::op::{ReduceScanOp, ScanKind};

/// Wraps an operator, replacing element accumulation with
/// translate-then-combine. Semantics are unchanged; performance is the
/// point (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Translated<Op>(pub Op);

impl<Op: ReduceScanOp> ReduceScanOp for Translated<Op> {
    type In = Op::In;
    type State = Op::State;
    type Out = Op::Out;

    const COMMUTATIVE: bool = Op::COMMUTATIVE;

    fn ident(&self) -> Self::State {
        self.0.ident()
    }

    fn pre_accum(&self, state: &mut Self::State, first: &Self::In) {
        self.0.pre_accum(state, first);
    }

    fn accum(&self, state: &mut Self::State, x: &Self::In) {
        // Translate: lift the single element into a state of its own …
        let mut lifted = self.0.ident();
        self.0.accum(&mut lifted, x);
        // … then pay a full combine to attach it.
        self.0.combine(state, lifted);
    }

    fn post_accum(&self, state: &mut Self::State, last: &Self::In) {
        self.0.post_accum(state, last);
    }

    fn combine(&self, earlier: &mut Self::State, later: Self::State) {
        self.0.combine(earlier, later);
    }

    fn red_gen(&self, state: Self::State) -> Self::Out {
        self.0.red_gen(state)
    }

    fn scan_gen(&self, state: &Self::State, x: &Self::In) -> Self::Out {
        self.0.scan_gen(state, x)
    }

    fn wire_size(&self, state: &Self::State) -> usize {
        self.0.wire_size(state)
    }
}

/// Sequential reduction via the translate formulation — a convenience for
/// the ablation's `translate/*` rows.
pub fn reduce_translated<Op: ReduceScanOp>(op: &Op, input: &[Op::In]) -> Op::Out {
    crate::seq::reduce(&Translated(op), input)
}

/// Sequential scan via the translate formulation.
pub fn scan_translated<Op: ReduceScanOp>(
    op: &Op,
    input: &[Op::In],
    kind: ScanKind,
) -> Vec<Op::Out> {
    crate::seq::scan(&Translated(op), input, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::builtin::sum;
    use crate::ops::mink::MinK;
    use crate::seq;

    #[test]
    fn translated_sum_matches_direct() {
        let data: Vec<i64> = (0..500).map(|i| (i * 31) % 97 - 48).collect();
        assert_eq!(
            reduce_translated(&sum::<i64>(), &data),
            seq::reduce(&sum::<i64>(), &data)
        );
    }

    #[test]
    fn translated_mink_matches_direct() {
        let data: Vec<i32> = (0..400).map(|i| (i * 53) % 389).collect();
        let op = MinK::<i32>::new(8);
        assert_eq!(reduce_translated(&op, &data), seq::reduce(&op, &data));
    }

    #[test]
    fn translated_stays_on_the_per_element_loop() {
        // `MinK` has a block kernel; its translate form must not inherit
        // it, or TXT-TRANSLATE would stop measuring translation.
        let op = MinK::<i32>::new(4);
        let data: Vec<i32> = (0..64).rev().collect();
        let mut direct = op.ident();
        assert!(op.accum_block(&mut direct, &data));
        let mut translated = op.ident();
        assert!(!Translated(op).accum_block(&mut translated, &data));
        assert_eq!(
            translated,
            op.ident(),
            "a declined block must leave the state alone"
        );
    }

    #[test]
    fn translated_scan_matches_direct() {
        let data: Vec<i64> = (0..50).collect();
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            assert_eq!(
                scan_translated(&sum::<i64>(), &data, kind),
                seq::scan(&sum::<i64>(), &data, kind)
            );
        }
    }

    #[test]
    fn translated_preserves_commutativity_flag() {
        use crate::ops::sorted::Sorted;
        const { assert!(!<Translated<Sorted<i32>> as ReduceScanOp>::COMMUTATIVE) };
    }

    #[test]
    fn translated_parallel_matches_sequential() {
        let pool = gv_executor::Pool::new(2);
        let data: Vec<i64> = (0..300).collect();
        let op = Translated(sum::<i64>());
        assert_eq!(
            crate::par::reduce(&pool, 7, &op, &data),
            seq::reduce(&sum::<i64>(), &data)
        );
    }
}
