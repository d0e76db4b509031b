//! The twelve MPI built-in reduction/scan operators (paper §2.2):
//! maximum, minimum, sum, product, logical and/or/xor, bit-wise and/or/xor,
//! and maximum/minimum value-and-location.
//!
//! Each is an ordinary [`ReduceScanOp`] whose input, state and output
//! types coincide — the case in which, paper §3, "the global-view
//! abstraction reduces to the local-view abstraction": the accumulate and
//! combine functions are one function, and both generate functions pass
//! the state through. The ten arithmetic, logical and bit-wise operators
//! also install the block kernels of [`crate::kernel`]; constructor
//! functions at the bottom give call sites the ergonomics of
//! `reduce(&sum::<i64>(), &data)`.

use std::marker::PhantomData;

use crate::kernel;
use crate::op::{ReduceScanOp, ScanKind};
use crate::ops::num::{Bits, Bounded, Num};

/// Implements [`ReduceScanOp`] with `In = State = Out = $t` from an
/// identity, a combine closure and a regrouping flag: `accum` and
/// `combine` are the closure, the accumulate kernel is the lane fold, and
/// the scan kernel is chosen by `$exact`. Regrouping-exact closures
/// (wrapping integer sums, bitwise/boolean ops, integer min/max) scan
/// through the serial-order slice kernel: a latency-1 dependent chain
/// already runs at ~1 element/cycle, so serial order is both bit-identical
/// to the scalar loop *and* the fastest choice. Float closures
/// (multi-cycle latency chains) scan through the pinned prefix-network
/// regrouping of [`crate::kernel`] instead, which trades serial order for
/// instruction parallelism.
macro_rules! builtin {
    ([$($g:tt)*] $op:ty, $t:ty, $ident:expr, $f:expr, $exact:expr) => {
        impl<$($g)*> ReduceScanOp for $op {
            type In = $t;
            type State = $t;
            type Out = $t;
            fn ident(&self) -> $t {
                $ident
            }
            fn accum(&self, state: &mut $t, x: &$t) {
                *state = $f(*state, *x);
            }
            fn combine(&self, earlier: &mut $t, later: $t) {
                *earlier = $f(*earlier, later);
            }
            fn red_gen(&self, state: $t) -> $t {
                state
            }
            fn scan_gen(&self, state: &$t, _x: &$t) -> $t {
                *state
            }
            fn accum_block(&self, state: &mut $t, block: &[$t]) -> bool {
                *state = $f(*state, kernel::fold_block($ident, block, $f));
                true
            }
            fn scan_block(
                &self,
                state: &mut $t,
                block: &[$t],
                out: &mut Vec<$t>,
                kind: ScanKind,
            ) -> bool {
                if $exact {
                    kernel::scan_block_serial(state, block, out, $f, kind);
                } else {
                    kernel::scan_block_network(state, block, out, $f, kind);
                }
                true
            }
        }
    };
}

/// Sum (`MPI_SUM`). Integer sums wrap; float sums are subject to the usual
/// non-associativity caveat.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sum<T>(PhantomData<T>);
builtin!([T: Num] Sum<T>, T, T::ZERO, |x: T, y: T| x.add(y), T::REGROUP_EXACT);

/// Product (`MPI_PROD`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Prod<T>(PhantomData<T>);
builtin!([T: Num] Prod<T>, T, T::ONE, |x: T, y: T| x.mul(y), T::REGROUP_EXACT);

/// Minimum (`MPI_MIN`). Identity is the type's greatest value, matching the
/// paper's `in_t.max` idiom.
#[derive(Debug, Default, Clone, Copy)]
pub struct Min<T>(PhantomData<T>);
// Integer min/max scans stay serial-order (regrouping-exact), so they are
// bit-identical to the scalar loop for every input. Float min/max use the
// network scan: selection never rounds, so that too is bit-identical on
// totally-ordered data — the pinned regrouping is observable only for
// NaN / mixed-zero inputs (module docs of `crate::kernel`).
builtin!([T: Bounded] Min<T>, T, T::MAX_VALUE,
    |x: T, y: T| if y < x { y } else { x }, T::REGROUP_EXACT);

/// Maximum (`MPI_MAX`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Max<T>(PhantomData<T>);
builtin!([T: Bounded] Max<T>, T, T::MIN_VALUE,
    |x: T, y: T| if y > x { y } else { x }, T::REGROUP_EXACT);

/// Logical and (`MPI_LAND`). `&` on bool is value-identical to `&&`; the
/// non-short-circuit form vectorizes.
#[derive(Debug, Default, Clone, Copy)]
pub struct LAnd;
builtin!([] LAnd, bool, true, |x: bool, y: bool| x & y, true);

/// Logical or (`MPI_LOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LOr;
builtin!([] LOr, bool, false, |x: bool, y: bool| x | y, true);

/// Logical xor (`MPI_LXOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LXor;
builtin!([] LXor, bool, false, |x: bool, y: bool| x ^ y, true);

/// Bit-wise and (`MPI_BAND`).
#[derive(Debug, Default, Clone, Copy)]
pub struct BAnd<T>(PhantomData<T>);
builtin!([T: Bits] BAnd<T>, T, T::ALL_ONES, |x: T, y: T| x.band(y), true);

/// Bit-wise or (`MPI_BOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct BOr<T>(PhantomData<T>);
builtin!([T: Bits] BOr<T>, T, T::ALL_ZEROS, |x: T, y: T| x.bor(y), true);

/// Bit-wise xor (`MPI_BXOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct BXor<T>(PhantomData<T>);
builtin!([T: Bits] BXor<T>, T, T::ALL_ZEROS, |x: T, y: T| x.bxor(y), true);

/// Minimum value and location (`MPI_MINLOC`): the element is a
/// `(value, location)` pair; ties are broken toward the smaller location,
/// matching MPI's deterministic tie rule.
#[derive(Debug, Default, Clone, Copy)]
pub struct MinLoc<T, L>(PhantomData<(T, L)>);

impl<T: Bounded, L: Ord + Copy + Default> ReduceScanOp for MinLoc<T, L> {
    type In = (T, L);
    type State = (T, L);
    type Out = (T, L);
    fn ident(&self) -> (T, L) {
        (T::MAX_VALUE, L::default())
    }
    fn accum(&self, state: &mut (T, L), x: &(T, L)) {
        self.combine(state, *x);
    }
    fn combine(&self, a: &mut (T, L), b: (T, L)) {
        if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
            *a = b;
        }
    }
    crate::impl_passthrough_gen!();
}

/// Maximum value and location (`MPI_MAXLOC`); ties toward the smaller
/// location.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxLoc<T, L>(PhantomData<(T, L)>);

impl<T: Bounded, L: Ord + Copy + Default> ReduceScanOp for MaxLoc<T, L> {
    type In = (T, L);
    type State = (T, L);
    type Out = (T, L);
    fn ident(&self) -> (T, L) {
        (T::MIN_VALUE, L::default())
    }
    fn accum(&self, state: &mut (T, L), x: &(T, L)) {
        self.combine(state, *x);
    }
    fn combine(&self, a: &mut (T, L), b: (T, L)) {
        if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
            *a = b;
        }
    }
    crate::impl_passthrough_gen!();
}

macro_rules! constructor {
    ($(#[$doc:meta] $fn_name:ident, $op:ident, [$($g:ident),*];)*) => {$(
        #[$doc]
        pub fn $fn_name<$($g),*>() -> $op<$($g),*>
        where
            $op<$($g),*>: ReduceScanOp + Default,
        {
            $op::default()
        }
    )*};
}

constructor! {
    /// The sum operator.
    sum, Sum, [T];
    /// The product operator.
    prod, Prod, [T];
    /// The minimum operator.
    min, Min, [T];
    /// The maximum operator.
    max, Max, [T];
    /// The bit-wise and operator.
    band, BAnd, [T];
    /// The bit-wise or operator.
    bor, BOr, [T];
    /// The bit-wise xor operator.
    bxor, BXor, [T];
    /// The logical-and operator.
    land, LAnd, [];
    /// The logical-or operator.
    lor, LOr, [];
    /// The logical-xor operator.
    lxor, LXor, [];
}

/// The minimum-value-and-location operator over `(value, location)` pairs.
pub fn minloc<T, L>() -> MinLoc<T, L>
where
    MinLoc<T, L>: ReduceScanOp,
{
    MinLoc(PhantomData)
}

/// The maximum-value-and-location operator over `(value, location)` pairs.
pub fn maxloc<T, L>() -> MaxLoc<T, L>
where
    MaxLoc<T, L>: ReduceScanOp,
{
    MaxLoc(PhantomData)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    const PAPER_SET: [i64; 10] = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3];

    #[test]
    fn all_twelve_have_true_identities() {
        // x ⊕ ident == x and ident ⊕ x == x for a sample of values.
        fn check<Op: ReduceScanOp<State = T>, T: Clone + PartialEq + std::fmt::Debug>(
            op: &Op,
            samples: &[T],
        ) {
            for x in samples {
                let mut a = x.clone();
                op.combine(&mut a, op.ident());
                assert_eq!(&a, x, "right identity failed");
                let mut b = op.ident();
                op.combine(&mut b, x.clone());
                assert_eq!(&b, x, "left identity failed");
            }
        }
        check(&Sum::<i64>::default(), &[-3, 0, 7]);
        check(&Prod::<i64>::default(), &[-3, 0, 7]);
        check(&Min::<i64>::default(), &[i64::MIN, -3, 0, 7]);
        check(&Max::<i64>::default(), &[i64::MAX, -3, 0, 7]);
        check(&LAnd, &[true, false]);
        check(&LOr, &[true, false]);
        check(&LXor, &[true, false]);
        check(&BAnd::<u32>::default(), &[0, 0xdead_beef, u32::MAX]);
        check(&BOr::<u32>::default(), &[0, 0xdead_beef, u32::MAX]);
        check(&BXor::<u32>::default(), &[0, 0xdead_beef, u32::MAX]);
        check(&MinLoc::<i32, u32>::default(), &[(5, 2), (-1, 9)]);
        check(&MaxLoc::<i32, u32>::default(), &[(5, 2), (-1, 9)]);
    }

    #[test]
    fn builtin_reductions_on_paper_set() {
        assert_eq!(seq::reduce(&sum::<i64>(), &PAPER_SET), 55);
        assert_eq!(seq::reduce(&min::<i64>(), &PAPER_SET), 2);
        assert_eq!(seq::reduce(&max::<i64>(), &PAPER_SET), 8);
    }

    #[test]
    fn product_reduction() {
        assert_eq!(seq::reduce(&prod::<u64>(), &[1, 2, 3, 4]), 24);
        assert_eq!(seq::reduce(&prod::<u64>(), &[]), 1);
    }

    #[test]
    fn logical_ops() {
        assert!(seq::reduce(&land(), &[true, true, true]));
        assert!(!seq::reduce(&land(), &[true, false, true]));
        assert!(seq::reduce(&lor(), &[false, true, false]));
        assert!(!seq::reduce(&lor(), &[false, false]));
        assert!(seq::reduce(&lxor(), &[true, false, true, true]));
        assert!(!seq::reduce(&lxor(), &[true, true]));
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(seq::reduce(&band::<u8>(), &[0b1110, 0b0111]), 0b0110);
        assert_eq!(seq::reduce(&bor::<u8>(), &[0b1000, 0b0011]), 0b1011);
        assert_eq!(seq::reduce(&bxor::<u8>(), &[0b1100, 0b1010]), 0b0110);
    }

    #[test]
    fn minloc_maxloc_with_tie_breaking() {
        let pairs: Vec<(i32, u32)> = vec![(4, 0), (1, 1), (9, 2), (1, 3), (9, 4)];
        assert_eq!(seq::reduce(&minloc::<i32, u32>(), &pairs), (1, 1));
        assert_eq!(seq::reduce(&maxloc::<i32, u32>(), &pairs), (9, 2));
    }

    #[test]
    fn max_scan_is_running_maximum() {
        let got = seq::scan(&max::<i64>(), &PAPER_SET, ScanKind::Inclusive);
        assert_eq!(got, vec![6, 7, 7, 7, 8, 8, 8, 8, 8, 8]);
    }

    #[test]
    fn exclusive_min_scan_starts_at_identity() {
        let got = seq::scan(&min::<i64>(), &[3, 1, 2], ScanKind::Exclusive);
        assert_eq!(got, vec![i64::MAX, 3, 1]);
    }
}
