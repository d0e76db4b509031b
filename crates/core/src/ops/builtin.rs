//! The twelve MPI built-in reduction/scan operators (paper §2.2):
//! maximum, minimum, sum, product, logical and/or/xor, bit-wise and/or/xor,
//! and maximum/minimum value-and-location.
//!
//! Each is a [`Monoid`] (the degenerate global-view case) lifted via
//! [`MonoidOp`]; constructor functions at the bottom give call sites the
//! ergonomics of `reduce(&sum::<i64>(), &data)`.

use std::marker::PhantomData;

use crate::kernel;
use crate::monoid::{Monoid, MonoidOp};
use crate::op::ScanKind;
use crate::ops::num::{Bits, Bounded, Num};

/// Implements the two [`Monoid`] block-kernel hooks from a combine
/// closure: lane-fold accumulate and a scan kernel chosen by `$exact`.
/// Regrouping-exact closures (wrapping integer sums, bitwise/boolean ops,
/// integer min/max) scan through the serial-order slice kernel: a latency-1 dependent chain already runs at
/// ~1 element/cycle, so serial order is both bit-identical to the scalar
/// loop *and* the fastest choice. Float closures (multi-cycle latency
/// chains) scan through the pinned prefix-network regrouping of
/// [`crate::kernel`] instead, which trades serial order for instruction
/// parallelism.
macro_rules! impl_monoid_kernels {
    ($f:expr, $exact:expr) => {
        fn combine_block(&self, a: &mut Self::T, block: &[Self::T]) -> bool {
            let folded = kernel::fold_block(self.identity(), block, $f);
            self.combine(a, &folded);
            true
        }
        fn scan_block(
            &self,
            carry: &mut Self::T,
            block: &[Self::T],
            out: &mut Vec<Self::T>,
            kind: ScanKind,
        ) -> bool {
            if $exact {
                kernel::scan_block_serial(carry, block, out, $f, kind);
            } else {
                kernel::scan_block_network(carry, block, out, $f, kind);
            }
            true
        }
    };
}

/// Sum (`MPI_SUM`). Integer sums wrap; float sums are subject to the usual
/// non-associativity caveat.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sum<T>(PhantomData<T>);

impl<T: Num> Monoid for Sum<T> {
    type T = T;
    fn identity(&self) -> T {
        T::ZERO
    }
    fn combine(&self, a: &mut T, b: &T) {
        *a = a.add(*b);
    }
    impl_monoid_kernels!(|x: T, y: T| x.add(y), T::REGROUP_EXACT);
}

impl<T: Num> crate::monoid::InvertibleMonoid for Sum<T> {
    fn uncombine(&self, a: &mut T, b: &T) {
        // Wrapping integer sums invert exactly; float sums invert up to
        // rounding (documented at the use sites).
        *a = a.sub(*b);
    }
}

/// Product (`MPI_PROD`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Prod<T>(PhantomData<T>);

impl<T: Num> Monoid for Prod<T> {
    type T = T;
    fn identity(&self) -> T {
        T::ONE
    }
    fn combine(&self, a: &mut T, b: &T) {
        *a = a.mul(*b);
    }
    impl_monoid_kernels!(|x: T, y: T| x.mul(y), T::REGROUP_EXACT);
}

/// Minimum (`MPI_MIN`). Identity is the type's greatest value, matching the
/// paper's `in_t.max` idiom.
#[derive(Debug, Default, Clone, Copy)]
pub struct Min<T>(PhantomData<T>);

impl<T: Bounded> Monoid for Min<T> {
    type T = T;
    fn identity(&self) -> T {
        T::MAX_VALUE
    }
    fn combine(&self, a: &mut T, b: &T) {
        if *b < *a {
            *a = *b;
        }
    }
    // Integer min/max scans stay serial-order (regrouping-exact), so they
    // are bit-identical to the scalar loop for every input. Float min/max
    // use the network scan: selection never rounds, so that too is
    // bit-identical on totally-ordered data — the pinned regrouping is
    // observable only for NaN / mixed-zero inputs (module docs of
    // `crate::kernel`).
    impl_monoid_kernels!(|x: T, y: T| if y < x { y } else { x }, T::REGROUP_EXACT);
}

/// Maximum (`MPI_MAX`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Max<T>(PhantomData<T>);

impl<T: Bounded> Monoid for Max<T> {
    type T = T;
    fn identity(&self) -> T {
        T::MIN_VALUE
    }
    fn combine(&self, a: &mut T, b: &T) {
        if *b > *a {
            *a = *b;
        }
    }
    impl_monoid_kernels!(|x: T, y: T| if y > x { y } else { x }, T::REGROUP_EXACT);
}

/// Logical and (`MPI_LAND`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LAnd;

impl Monoid for LAnd {
    type T = bool;
    fn identity(&self) -> bool {
        true
    }
    fn combine(&self, a: &mut bool, b: &bool) {
        *a = *a && *b;
    }
    // `&` on bool is value-identical to `&&`; the non-short-circuit form
    // vectorizes.
    impl_monoid_kernels!(|x: bool, y: bool| x & y, true);
}

/// Logical or (`MPI_LOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LOr;

impl Monoid for LOr {
    type T = bool;
    fn identity(&self) -> bool {
        false
    }
    fn combine(&self, a: &mut bool, b: &bool) {
        *a = *a || *b;
    }
    impl_monoid_kernels!(|x: bool, y: bool| x | y, true);
}

/// Logical xor (`MPI_LXOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LXor;

impl Monoid for LXor {
    type T = bool;
    fn identity(&self) -> bool {
        false
    }
    fn combine(&self, a: &mut bool, b: &bool) {
        *a = *a != *b;
    }
    impl_monoid_kernels!(|x: bool, y: bool| x ^ y, true);
}

/// Bit-wise and (`MPI_BAND`).
#[derive(Debug, Default, Clone, Copy)]
pub struct BAnd<T>(PhantomData<T>);

impl<T: Bits> Monoid for BAnd<T> {
    type T = T;
    fn identity(&self) -> T {
        T::ALL_ONES
    }
    fn combine(&self, a: &mut T, b: &T) {
        *a = a.band(*b);
    }
    impl_monoid_kernels!(|x: T, y: T| x.band(y), true);
}

/// Bit-wise or (`MPI_BOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct BOr<T>(PhantomData<T>);

impl<T: Bits> Monoid for BOr<T> {
    type T = T;
    fn identity(&self) -> T {
        T::ALL_ZEROS
    }
    fn combine(&self, a: &mut T, b: &T) {
        *a = a.bor(*b);
    }
    impl_monoid_kernels!(|x: T, y: T| x.bor(y), true);
}

/// Bit-wise xor (`MPI_BXOR`).
#[derive(Debug, Default, Clone, Copy)]
pub struct BXor<T>(PhantomData<T>);

impl<T: Bits> Monoid for BXor<T> {
    type T = T;
    fn identity(&self) -> T {
        T::ALL_ZEROS
    }
    fn combine(&self, a: &mut T, b: &T) {
        *a = a.bxor(*b);
    }
    impl_monoid_kernels!(|x: T, y: T| x.bxor(y), true);
}

impl crate::monoid::InvertibleMonoid for LXor {
    fn uncombine(&self, a: &mut bool, b: &bool) {
        *a = *a != *b;
    }
}

impl<T: Bits> crate::monoid::InvertibleMonoid for BXor<T> {
    fn uncombine(&self, a: &mut T, b: &T) {
        *a = a.bxor(*b);
    }
}

/// Minimum value and location (`MPI_MINLOC`): the element is a
/// `(value, location)` pair; ties are broken toward the smaller location,
/// matching MPI's deterministic tie rule.
#[derive(Debug, Default, Clone, Copy)]
pub struct MinLoc<T, L>(PhantomData<(T, L)>);

impl<T: Bounded, L: Ord + Copy + Default + std::fmt::Debug> Monoid for MinLoc<T, L> {
    type T = (T, L);
    fn identity(&self) -> (T, L) {
        (T::MAX_VALUE, L::default())
    }
    fn combine(&self, a: &mut (T, L), b: &(T, L)) {
        if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
            *a = *b;
        }
    }
}

/// Maximum value and location (`MPI_MAXLOC`); ties toward the smaller
/// location.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxLoc<T, L>(PhantomData<(T, L)>);

impl<T: Bounded, L: Ord + Copy + Default + std::fmt::Debug> Monoid for MaxLoc<T, L> {
    type T = (T, L);
    fn identity(&self) -> (T, L) {
        (T::MIN_VALUE, L::default())
    }
    fn combine(&self, a: &mut (T, L), b: &(T, L)) {
        if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
            *a = *b;
        }
    }
}

macro_rules! constructor {
    ($(#[$doc:meta] $fn_name:ident, $monoid:ident, [$($g:ident),*];)*) => {$(
        #[$doc]
        pub fn $fn_name<$($g),*>() -> MonoidOp<$monoid<$($g),*>>
        where
            $monoid<$($g),*>: Monoid + Default,
        {
            MonoidOp($monoid::default())
        }
    )*};
}

constructor! {
    /// The sum operator as a ready-to-use [`crate::op::ReduceScanOp`].
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
}

/// The logical-and operator.
pub fn land() -> MonoidOp<LAnd> {
    MonoidOp(LAnd)
}

/// The logical-or operator.
pub fn lor() -> MonoidOp<LOr> {
    MonoidOp(LOr)
}

/// The logical-xor operator.
pub fn lxor() -> MonoidOp<LXor> {
    MonoidOp(LXor)
}

/// The minimum-value-and-location operator over `(value, location)` pairs.
pub fn minloc<T, L>() -> MonoidOp<MinLoc<T, L>>
where
    MinLoc<T, L>: Monoid,
{
    MonoidOp(MinLoc(PhantomData))
}

/// The maximum-value-and-location operator over `(value, location)` pairs.
pub fn maxloc<T, L>() -> MonoidOp<MaxLoc<T, L>>
where
    MaxLoc<T, L>: Monoid,
{
    MonoidOp(MaxLoc(PhantomData))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScanKind;
    use crate::seq;

    const PAPER_SET: [i64; 10] = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3];

    #[test]
    fn all_twelve_have_true_identities() {
        // x ⊕ ident == x and ident ⊕ x == x for a sample of values.
        fn check<M: Monoid>(m: &M, samples: &[M::T])
        where
            M::T: Clone + PartialEq + std::fmt::Debug,
        {
            for x in samples {
                let mut a = x.clone();
                m.combine(&mut a, &m.identity());
                assert_eq!(&a, x, "right identity failed");
                let mut b = m.identity();
                m.combine(&mut b, x);
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
