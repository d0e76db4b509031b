//! Minimal numeric capability traits for the built-in operators.
//!
//! The standard library has no stable `Zero`/`One`/`Bounded` traits and the
//! allowed dependency set excludes `num-traits`, so the few capabilities
//! the 12 MPI built-ins need are defined here and implemented by macro for
//! the primitive types.

/// Types with additive and multiplicative identities and the corresponding
/// closed operations. Floats qualify; note that their addition is not
/// associative, so parallel sums of floats are deterministic for a *fixed*
/// decomposition but may differ across decompositions (same caveat as MPI).
pub trait Num: Copy + PartialOrd + std::fmt::Debug {
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Whether `add`/`mul` are invariant under regrouping (associative in
    /// the bit-exact sense). True for the wrapping integer ops, false for
    /// floats — the built-in scan kernels use this to pick between the
    /// serial-order slice kernel (bit-identical, and the faster choice for
    /// latency-1 integer chains) and the pinned prefix-network regrouping
    /// of [`crate::kernel`] (the faster choice for high-latency float
    /// chains).
    const REGROUP_EXACT: bool = false;
    /// Addition.
    fn add(self, other: Self) -> Self;
    /// Multiplication.
    fn mul(self, other: Self) -> Self;
}

/// Types with least and greatest values, used as identities for `min`/`max`
/// (and by the paper's `in_t.max` / `in_t.min` idiom in Listings 4, 5, 7).
pub trait Bounded: Copy + PartialOrd + std::fmt::Debug {
    /// Least value of the type.
    const MIN_VALUE: Self;
    /// Greatest value of the type.
    const MAX_VALUE: Self;
    /// Whether comparison-based selection (`min`/`max`) is invariant under
    /// regrouping in the bit-exact sense. True for totally-ordered integer
    /// types, false for floats (NaN and +0/−0 break associativity) — same
    /// role as [`Num::REGROUP_EXACT`] for the additive ops.
    const REGROUP_EXACT: bool = false;
}

/// Integer types supporting the MPI bit-wise reduction operators.
pub trait Bits: Copy + Eq + std::fmt::Debug {
    /// All bits clear (identity of bit-or / bit-xor).
    const ALL_ZEROS: Self;
    /// All bits set (identity of bit-and).
    const ALL_ONES: Self;
    /// Bit-wise and.
    fn band(self, other: Self) -> Self;
    /// Bit-wise or.
    fn bor(self, other: Self) -> Self;
    /// Bit-wise xor.
    fn bxor(self, other: Self) -> Self;
}

macro_rules! impl_num_int {
    ($($t:ty),*) => {$(
        impl Num for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const REGROUP_EXACT: bool = true;
            #[inline]
            fn add(self, other: Self) -> Self { self.wrapping_add(other) }
            #[inline]
            fn mul(self, other: Self) -> Self { self.wrapping_mul(other) }
        }
        impl Bounded for $t {
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            const REGROUP_EXACT: bool = true;
        }
        impl Bits for $t {
            const ALL_ZEROS: Self = 0;
            const ALL_ONES: Self = !0;
            #[inline]
            fn band(self, other: Self) -> Self { self & other }
            #[inline]
            fn bor(self, other: Self) -> Self { self | other }
            #[inline]
            fn bxor(self, other: Self) -> Self { self ^ other }
        }
    )*};
}

impl_num_int!(i8, i16, i32, i64, i128, u8, u16, u32, u64, u128, usize, isize);

macro_rules! impl_num_float {
    ($($t:ty),*) => {$(
        impl Num for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            #[inline]
            fn add(self, other: Self) -> Self { self + other }
            #[inline]
            fn mul(self, other: Self) -> Self { self * other }
        }
        impl Bounded for $t {
            // For min/max identities the infinities are the true identities
            // (MIN/MAX finite values would be absorbing for inputs beyond
            // them, which cannot occur for finite inputs anyway, but the
            // infinities are also correct for infinite inputs).
            const MIN_VALUE: Self = <$t>::NEG_INFINITY;
            const MAX_VALUE: Self = <$t>::INFINITY;
        }
    )*};
}

impl_num_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_identities() {
        assert_eq!(<i32 as Num>::ZERO.add(5), 5);
        assert_eq!(<i32 as Num>::ONE.mul(7), 7);
        assert_eq!(<u8 as Bits>::ALL_ONES, 0xff);
        assert_eq!(<u8 as Bits>::ALL_ONES.band(0x5a), 0x5a);
        assert_eq!(<u8 as Bits>::ALL_ZEROS.bor(0x5a), 0x5a);
        assert_eq!(<u8 as Bits>::ALL_ZEROS.bxor(0x5a), 0x5a);
    }

    #[test]
    fn float_bounds_are_identities_for_min_max() {
        const { assert!(<f64 as Bounded>::MAX_VALUE > 1e308) };
        const { assert!(<f64 as Bounded>::MIN_VALUE < -1e308) };
    }

    #[test]
    fn wrapping_semantics_for_integer_sum() {
        // Deterministic overflow behaviour regardless of build profile.
        assert_eq!(u8::MAX.add(1), 0);
    }
}
