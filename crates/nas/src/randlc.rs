//! The NAS Parallel Benchmarks pseudorandom number generator.
//!
//! The NPB generator is the linear congruential scheme
//!
//! ```text
//! x_{k+1} = a · x_k  (mod 2^46),   a = 5^13,   period 2^44
//! ```
//!
//! returning `x_k · 2^-46 ∈ (0, 1)`. The reference implementation carries
//! the state in double precision split into halves; since the modulus is a
//! power of two, exact integer arithmetic reproduces the identical stream
//! bit-for-bit, which is what this module does.
//!
//! Seed-jumping (`pow46`) lets each rank start its block of the stream
//! without generating its predecessors — the trick NAS `find_my_seed` /
//! `zran3`'s plane offsets rely on.
//!
//! # `fill` in lanes
//!
//! One variate at a time the recurrence is a multiply-and-mask dependency
//! chain, about 0.8 ns a step however wide the machine. NPB's `vranlc`
//! exists because the stream is lane-parallel by the same seed jumping:
//! [`Randlc::fill`] keeps [`FILL_LANES`] states `x·a¹ … x·a^L`, writes them
//! out as one group and steps every lane by `a^L`, so the multiplies of a
//! group are independent and a vector unit does eight at once. The body is
//! compiled once per ISA tier by [`gv_core::isa_tiers!`], the macro
//! `gv_core::kernel` builds its lane folds with, and the lanes run only on
//! the tiers where they measured ahead of the one-chain loop
//! (`kernel_microbench`, `randlc/fill` rows): AVX2 and AVX-512 do; the
//! baseline x86-64 target, which has no packed 64-bit multiply, does not,
//! so there `fill` is the loop it always was.
//!
//! The stream cannot change: every lane does exact integer arithmetic mod
//! 2⁴⁶ (`a^L` is itself exact, the low 46 bits of a 64-bit product are
//! those of the full product, and a state below 2⁴⁶ converts to `f64`
//! without rounding), the first group, the `len mod L` tail and the
//! generator's state after the call come off the one-chain loop, and
//! nothing is regrouped — element `i` is `next_f64`'s `i`-th value, bit for
//! bit, on every tier (`tests/randlc_pin.rs` holds every tier to the
//! independent `gv_testkit` copy).

use gv_core::kernel::IsaTier;

/// The NPB multiplier `a = 5^13`.
pub const A: u64 = 1_220_703_125;

/// The default NPB seed used by IS and MG.
pub const DEFAULT_SEED: u64 = 314_159_265;

const MOD_BITS: u32 = 46;
const MASK: u64 = (1u64 << MOD_BITS) - 1;
const SCALE: f64 = 1.0 / (1u64 << MOD_BITS) as f64;

/// Lane states [`Randlc::fill`] keeps on the vector tiers: four AVX-512
/// registers, eight AVX2 — enough independent multiplies in flight to
/// leave the store stream as the limit (16 lanes read 1.2–1.7× slower, 64
/// no faster once the output leaves the cache).
pub const FILL_LANES: usize = 32;

/// The generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Randlc {
    x: u64,
}

impl Randlc {
    /// Creates a generator with the given seed (taken mod 2^46).
    pub fn new(seed: u64) -> Self {
        Randlc { x: seed & MASK }
    }

    /// The canonical NPB stream (`seed = 314159265`).
    pub fn nas_default() -> Self {
        Self::new(DEFAULT_SEED)
    }

    /// Current raw state.
    pub fn state(&self) -> u64 {
        self.x
    }

    /// Advances one step and returns the uniform variate in `(0, 1)` —
    /// NPB's `randlc(&x, a)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.x = mul_mod46(self.x, A);
        self.x as f64 * SCALE
    }

    /// Fills `out` with consecutive variates — NPB's `vranlc`. The values
    /// and the state left behind are those of [`next_f64`](Self::next_f64)
    /// called `out.len()` times, whichever tier runs (module docs).
    pub fn fill(&mut self, out: &mut [f64]) {
        self.x = fill_from(self.x, out);
    }

    /// [`fill`](Self::fill) through the body compiled for `tier`, for the
    /// tests and benches that hold every tier to the same stream
    /// (`Portable` is the one-chain loop).
    ///
    /// # Panics
    ///
    /// If the host cannot run `tier` (it is not in [`IsaTier::available`]).
    pub fn fill_on(&mut self, tier: IsaTier, out: &mut [f64]) {
        self.x = fill_from::on(tier, self.x, out);
    }

    /// Jumps the generator forward by `n` steps in O(log n) time.
    pub fn jump(&mut self, n: u64) {
        self.x = mul_mod46(self.x, pow46(A, n));
    }

    /// A generator positioned `n` steps after this one.
    pub fn jumped(&self, n: u64) -> Self {
        let mut g = *self;
        g.jump(n);
        g
    }
}

/// The one-chain loop: fills `out` from state `x` a step at a time and
/// returns the state after the last. The portable `fill`, and the first
/// group and the tail of the lane body.
#[inline(always)]
fn fill_chain(mut x: u64, out: &mut [f64]) -> u64 {
    for slot in out {
        x = mul_mod46(x, A);
        *slot = x as f64 * SCALE;
    }
    x
}

/// The one lane body; every ISA variant is a monomorphization of this code.
/// The first group comes off the chain and seeds the lanes, so lane `l`
/// always holds the last value it wrote and the state after the full groups
/// is the last lane's.
#[inline(always)]
fn fill_lanes_body(mut x: u64, out: &mut [f64]) -> u64 {
    /// `a^L`: one step of a lane.
    const STRIDE: u64 = pow46(A, FILL_LANES as u64);
    /// 2⁵² as an `f64`'s bits: exponent 1075, empty mantissa.
    const TWO_52: u64 = 1075 << 52;
    let mut groups = out.chunks_exact_mut(FILL_LANES);
    let Some(first) = groups.next() else {
        return fill_chain(x, groups.into_remainder());
    };
    let mut lanes = [0u64; FILL_LANES];
    for (lane, slot) in lanes.iter_mut().zip(first) {
        x = mul_mod46(x, A);
        *lane = x;
        *slot = x as f64 * SCALE;
    }
    for group in &mut groups {
        for (lane, slot) in lanes.iter_mut().zip(group) {
            // Both factors are below 2^46, so the product mod 2^64 still
            // holds the low 46 bits of the full product.
            *lane = lane.wrapping_mul(STRIDE) & MASK;
            // `*lane as f64`, spelled so that it vectorizes below
            // AVX-512DQ, which is where a packed u64 → f64 conversion
            // first exists: an integer below 2^52 is the mantissa of
            // 2^52 + itself, and taking 2^52 off again is exact.
            *slot = (f64::from_bits(*lane | TWO_52) - f64::from_bits(TWO_52)) * SCALE;
        }
    }
    fill_chain(lanes[FILL_LANES - 1], groups.into_remainder())
}

gv_core::isa_tiers! {
    /// Fills `out` from state `x` and returns the state after the last
    /// variate: the one-chain loop on the baseline tier, which has no packed
    /// 64-bit multiply and measured no faster in lanes, the lanes on the
    /// vector tiers.
    fn fill_from(x: u64, out: &mut [f64]) -> u64 {
        portable: fill_chain(x, out),
        avx2: fill_lanes_body(x, out),
        avx512: fill_lanes_body(x, out),
    }
}

/// `(x · y) mod 2^46` exactly.
#[inline]
pub const fn mul_mod46(x: u64, y: u64) -> u64 {
    ((x as u128 * y as u128) & MASK as u128) as u64
}

/// `a^n mod 2^46` by binary exponentiation — NPB's `ipow46`.
pub const fn pow46(a: u64, mut n: u64) -> u64 {
    let mut base = a & MASK;
    let mut acc = 1u64;
    while n > 0 {
        if n & 1 == 1 {
            acc = mul_mod46(acc, base);
        }
        base = mul_mod46(base, base);
        n >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_first_values_of_the_nas_stream() {
        // First step from the canonical seed: x1 = a·x0 mod 2^46.
        let mut g = Randlc::nas_default();
        let v = g.next_f64();
        let expected_state = mul_mod46(DEFAULT_SEED, A);
        assert_eq!(g.state(), expected_state);
        assert!((v - expected_state as f64 * SCALE).abs() < 1e-18);
    }

    #[test]
    fn variates_are_in_unit_interval_and_nondegenerate() {
        let mut g = Randlc::nas_default();
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!(v > 0.0 && v < 1.0);
            min = min.min(v);
            max = max.max(v);
        }
        assert!(min < 0.01, "min={min}");
        assert!(max > 0.99, "max={max}");
    }

    #[test]
    fn mean_is_about_half() {
        let mut g = Randlc::nas_default();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| g.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn jump_matches_stepping() {
        for n in [0u64, 1, 2, 17, 1000, 65_536] {
            let mut stepped = Randlc::nas_default();
            for _ in 0..n {
                stepped.next_f64();
            }
            let jumped = Randlc::nas_default().jumped(n);
            assert_eq!(stepped.state(), jumped.state(), "n={n}");
        }
    }

    #[test]
    fn pow46_agrees_with_repeated_multiplication() {
        let mut acc = 1u64;
        for n in 0..64u64 {
            assert_eq!(pow46(A, n), acc, "n={n}");
            acc = mul_mod46(acc, A);
        }
    }

    #[test]
    fn disjoint_blocks_tile_the_stream() {
        // Rank r generating block [r·k, (r+1)·k) from a jumped seed must
        // reproduce the serial stream exactly.
        let k = 1000;
        let mut serial = Randlc::nas_default();
        let mut reference = vec![0.0; 4 * k];
        serial.fill(&mut reference);
        for r in 0..4 {
            let mut g = Randlc::nas_default().jumped((r * k) as u64);
            let mut block = vec![0.0; k];
            g.fill(&mut block);
            assert_eq!(block.as_slice(), &reference[r * k..(r + 1) * k], "rank {r}");
        }
    }

    #[test]
    fn fill_equals_next_in_a_loop() {
        let mut a = Randlc::new(42);
        let mut b = Randlc::new(42);
        let mut buf = vec![0.0; 64];
        a.fill(&mut buf);
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, b.next_f64(), "i={i}");
        }
    }
}
