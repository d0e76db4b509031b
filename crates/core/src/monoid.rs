//! The degenerate case: input, state and output types coincide.
//!
//! Paper §3: "If the input type, output type, and state type are the same,
//! then the global-view abstraction reduces to the local-view abstraction.
//! The identity function and combine function need to be specified by the
//! programmer." [`Monoid`] captures exactly those two functions (plus the
//! commutativity flag), and [`MonoidOp`] lifts any monoid into a full
//! [`ReduceScanOp`], deriving the accumulate and generate functions.

use crate::op::{ReduceScanOp, ScanKind};

/// An identity element and an associative combine over a single type — the
/// local-view operator of paper §2.
pub trait Monoid {
    /// The carrier type.
    type T;

    /// Whether the combine is commutative (see
    /// [`ReduceScanOp::COMMUTATIVE`]).
    const COMMUTATIVE: bool = true;

    /// The identity element.
    fn identity(&self) -> Self::T;

    /// `a = a ⊕ b`. For non-commutative monoids `a`'s elements precede
    /// `b`'s.
    fn combine(&self, a: &mut Self::T, b: &Self::T);

    /// Block-kernel hook: folds a whole slice into `a` at once. Returning
    /// `false` (the default) keeps the per-element combine loop; kernels
    /// (see [`crate::kernel`]) must honor the pinned regrouping contract.
    /// Only commutative monoids should install a lane kernel — the lane
    /// fold interleaves elements across lanes.
    fn combine_block(&self, _a: &mut Self::T, _block: &[Self::T]) -> bool {
        false
    }

    /// Block-kernel hook for scans: appends one output per element of
    /// `block` to `out` and leaves `carry` as the running fold through the
    /// block. Returning `false` (the default) keeps the per-element loop.
    fn scan_block(
        &self,
        _carry: &mut Self::T,
        _block: &[Self::T],
        _out: &mut Vec<Self::T>,
        _kind: ScanKind,
    ) -> bool {
        false
    }
}

/// A monoid whose combine can be inverted: `uncombine(a ⊕ b, b) = a`.
///
/// Paper §2: "Given the inclusive scan, it is impossible to compute the
/// exclusive scan without communication **if the combine function cannot
/// be inverted**. For example, a function that computes the minimum of two
/// values cannot be inverted." For monoids that *can* be inverted (sum,
/// xor, …) the exclusive scan falls out of the inclusive scan locally;
/// `gv_msgpass::localview::local_xscan_from_scan` exploits exactly this,
/// and `local_xscan_via_shift` is the shift-communication fallback the
/// paper describes for the rest.
pub trait InvertibleMonoid: Monoid {
    /// Removes `b`'s contribution from the right of `a`:
    /// `a = a ⊖ b` such that `uncombine(combine(x, b), b) == x`.
    fn uncombine(&self, a: &mut Self::T, b: &Self::T);
}

/// Adapter lifting a [`Monoid`] into a [`ReduceScanOp`] with
/// `In = State = Out = M::T`.
///
/// The accumulate function is the combine function (paper §3: "the combine
/// function is then used to accumulate the values into a local result") and
/// both generate functions pass the state through.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonoidOp<M>(pub M);

impl<M: Monoid> MonoidOp<M> {
    /// Wraps a monoid.
    pub fn new(monoid: M) -> Self {
        MonoidOp(monoid)
    }
}

impl<M: Monoid> ReduceScanOp for MonoidOp<M>
where
    M::T: Clone,
{
    type In = M::T;
    type State = M::T;
    type Out = M::T;

    const COMMUTATIVE: bool = M::COMMUTATIVE;

    fn ident(&self) -> M::T {
        self.0.identity()
    }

    fn accum(&self, state: &mut M::T, x: &M::T) {
        self.0.combine(state, x);
    }

    fn combine(&self, earlier: &mut M::T, later: M::T) {
        self.0.combine(earlier, &later);
    }

    fn red_gen(&self, state: M::T) -> M::T {
        state
    }

    fn scan_gen(&self, state: &M::T, _x: &M::T) -> M::T {
        state.clone()
    }

    fn accum_block(&self, state: &mut M::T, block: &[M::T]) -> bool {
        self.0.combine_block(state, block)
    }

    fn scan_block(
        &self,
        state: &mut M::T,
        block: &[M::T],
        out: &mut Vec<M::T>,
        kind: ScanKind,
    ) -> bool {
        self.0.scan_block(state, block, out, kind)
    }
}

/// Implements `red_gen`/`scan_gen` as state passthroughs for an operator
/// whose `State` and `Out` types coincide (and `State: Clone`).
///
/// Use inside an `impl ReduceScanOp for …` block:
///
/// ```
/// use gv_core::op::ReduceScanOp;
///
/// struct BitOr;
/// impl ReduceScanOp for BitOr {
///     type In = u64;
///     type State = u64;
///     type Out = u64;
///     fn ident(&self) -> u64 { 0 }
///     fn accum(&self, s: &mut u64, x: &u64) { *s |= *x; }
///     fn combine(&self, a: &mut u64, b: u64) { *a |= b; }
///     gv_core::impl_passthrough_gen!();
/// }
/// ```
#[macro_export]
macro_rules! impl_passthrough_gen {
    () => {
        fn red_gen(&self, state: Self::State) -> Self::Out {
            state
        }
        fn scan_gen(&self, state: &Self::State, _x: &Self::In) -> Self::Out {
            state.clone()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::accumulate_block;

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

    #[test]
    fn monoid_op_accumulates_in_order() {
        let op = MonoidOp(Concat);
        let mut s = op.ident();
        let input: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        accumulate_block(&op, &mut s, &input);
        assert_eq!(s, "abc");
        const { assert!(!<MonoidOp<Concat> as ReduceScanOp>::COMMUTATIVE) };
    }

    #[test]
    fn monoid_op_generates_passthrough() {
        let op = MonoidOp(Concat);
        assert_eq!(op.red_gen("xy".to_string()), "xy");
        assert_eq!(op.scan_gen(&"xy".to_string(), &"ignored".to_string()), "xy");
    }
}
