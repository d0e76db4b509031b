//! Deterministic, seedable pseudorandom number generators.
//!
//! [`TestRng`] is the workhorse for test-case generation: xoshiro256++
//! state seeded through splitmix64, so any `u64` seed — including 0 —
//! yields a well-mixed stream. Both algorithms are public-domain
//! constructions (Blackman & Vigna); they are reimplemented here so the
//! workspace needs no `rand` dependency.
//!
//! [`Nas46`] is the NAS Parallel Benchmarks linear congruential stream
//! (`x ← 5^13 · x mod 2^46`), the *same* generator `gv_nas::randlc`
//! implements for the paper's kernels. Having it here lets tests and
//! benches draw NAS-distributed workloads without depending on `gv-nas`;
//! a cross-check test in `gv-nas` pins the two implementations to the
//! identical bit stream.

/// One step of the splitmix64 sequence: advances `state` and returns the
/// next output. Used for seeding and for deriving independent sub-seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator for test-case generation.
///
/// Not cryptographic. Every method is reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates a generator from a 64-bit seed (any value, including 0).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        TestRng { s }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A fair coin flip.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Uniform in `0..n` (`n` must be non-zero). Lemire's widening
    /// multiply with rejection — unbiased for every `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut m = self.next_u64() as u128 * n as u128;
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                m = self.next_u64() as u128 * n as u128;
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in the half-open range `lo..hi` (`lo < hi`).
    pub fn i64_in(&mut self, range: std::ops::Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.below(span) as i64)
    }

    /// Uniform in the half-open range `lo..hi` (`lo < hi`).
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = (range.end - range.start) as u64;
        range.start + self.below(span) as usize
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the half-open range `lo..hi` (`lo < hi`, both finite).
    pub fn f64_in(&mut self, range: std::ops::Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.f64_unit() * (range.end - range.start)
    }

    /// An independent generator split off this one's stream. The parent
    /// advances by one step; parent and child streams do not correlate.
    pub fn split(&mut self) -> TestRng {
        TestRng::new(self.next_u64())
    }
}

/// The NAS Parallel Benchmarks pseudorandom stream:
/// `x_{k+1} = 5^13 · x_k mod 2^46`, variate `x_k · 2^-46 ∈ (0, 1)`.
///
/// Bit-compatible with `gv_nas::randlc::Randlc` (the kernels' generator);
/// this copy exists so test workloads can be NAS-distributed without a
/// `gv-nas` dependency, and is pinned against the original by a test in
/// `gv-nas`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nas46 {
    x: u64,
}

/// The NPB multiplier `a = 5^13`.
pub const NAS_A: u64 = 1_220_703_125;

/// The canonical NPB seed used by IS and MG.
pub const NAS_DEFAULT_SEED: u64 = 314_159_265;

const MOD_BITS: u32 = 46;
const MASK: u64 = (1u64 << MOD_BITS) - 1;
const SCALE: f64 = 1.0 / (1u64 << MOD_BITS) as f64;

#[inline]
fn mul_mod46(x: u64, y: u64) -> u64 {
    ((x as u128 * y as u128) & MASK as u128) as u64
}

fn pow46(a: u64, mut n: u64) -> u64 {
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

impl Nas46 {
    /// A stream starting from `seed` (taken mod 2^46).
    pub fn new(seed: u64) -> Self {
        Nas46 { x: seed & MASK }
    }

    /// The canonical NPB stream (`seed = 314159265`).
    pub fn nas_default() -> Self {
        Self::new(NAS_DEFAULT_SEED)
    }

    /// Current raw state.
    pub fn state(&self) -> u64 {
        self.x
    }

    /// Advances one step and returns the uniform variate in `(0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.x = mul_mod46(self.x, NAS_A);
        self.x as f64 * SCALE
    }

    /// Jumps the stream forward `n` steps in O(log n).
    pub fn jump(&mut self, n: u64) {
        self.x = mul_mod46(self.x, pow46(NAS_A, n));
    }

    /// A stream positioned `n` steps after this one.
    pub fn jumped(&self, n: u64) -> Self {
        let mut g = *self;
        g.jump(n);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TestRng::new(1);
        let mut b = TestRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut g = TestRng::new(0);
        let first: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        assert!(first.iter().any(|&x| x != 0));
        assert!(first.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn below_is_in_range_and_hits_everything() {
        let mut g = TestRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn signed_ranges_cover_negative_spans() {
        let mut g = TestRng::new(11);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = g.i64_in(-5..5);
            assert!((-5..5).contains(&v));
            lo_seen |= v == -5;
            hi_seen |= v == 4;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_unit_stays_in_unit_interval_with_sane_mean() {
        let mut g = TestRng::new(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = g.f64_unit();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn split_streams_do_not_mirror_the_parent() {
        let mut parent = TestRng::new(9);
        let mut child = parent.split();
        let same = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn nas46_jump_matches_stepping() {
        for n in [0u64, 1, 17, 1000] {
            let mut stepped = Nas46::nas_default();
            for _ in 0..n {
                stepped.next_f64();
            }
            assert_eq!(stepped.state(), Nas46::nas_default().jumped(n).state());
        }
    }

    #[test]
    fn nas46_first_step_from_canonical_seed() {
        let mut g = Nas46::nas_default();
        g.next_f64();
        assert_eq!(g.state(), mul_mod46(NAS_DEFAULT_SEED, NAS_A));
    }
}
