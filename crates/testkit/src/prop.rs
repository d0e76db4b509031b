//! A minimal property-testing runner: strategies, case generation,
//! greedy shrinking, and reproducible-seed reporting.
//!
//! The shape is a deliberately small subset of `proptest`: a
//! [`Strategy`] generates a value from a [`TestRng`] and can propose
//! *shrink candidates* (simpler variants of a failing value); [`check`]
//! runs `Config::cases` independent cases, and on the first failure
//! greedily walks shrink candidates until none fails, then panics with
//! the minimal counterexample **and the case seed** so the failure can be
//! replayed exactly (see the crate docs for the `GV_TESTKIT_SEED`
//! workflow).
//!
//! Each case derives its own seed from the base seed, the property name,
//! and the case index — so one case is reproducible in isolation, and
//! adding cases never perturbs earlier ones.

use crate::rng::{splitmix64, TestRng};

/// Runner configuration. Build with [`Config::new`], which also honours
/// the `GV_TESTKIT_SEED` / `GV_TESTKIT_CASES` environment overrides.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Base seed the per-case seeds derive from.
    pub seed: u64,
    /// Upper bound on accepted shrink steps (candidate evaluations are
    /// bounded by this times the candidate fan-out).
    pub max_shrink_steps: u32,
    /// When set (via `GV_TESTKIT_SEED`), run exactly one case with this
    /// case seed instead of the normal sweep.
    pub replay: Option<u64>,
}

/// Default base seed: fixed so CI runs are deterministic; vary it via
/// `GV_TESTKIT_SEED` or [`Config::seed`] for soak testing.
pub const DEFAULT_SEED: u64 = 0x675f_7465_7374_6b69; // "gv_testki"

impl Config {
    /// A config running `cases` cases, with environment overrides:
    /// `GV_TESTKIT_CASES=n` replaces the case count and
    /// `GV_TESTKIT_SEED=0x…` (hex or decimal) switches to single-case
    /// replay with that case seed.
    pub fn new(cases: u32) -> Self {
        let cases = match std::env::var("GV_TESTKIT_CASES") {
            Ok(v) => v.parse().unwrap_or(cases),
            Err(_) => cases,
        };
        let replay = std::env::var("GV_TESTKIT_SEED").ok().map(|v| {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("unparseable GV_TESTKIT_SEED: {v:?}"))
        });
        Config {
            cases,
            seed: DEFAULT_SEED,
            max_shrink_steps: 1000,
            replay,
        }
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A generator of random test values with optional shrink candidates.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Proposes strictly "simpler" variants of `value` to try during
    /// shrinking. An empty list ends shrinking at `value`.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// The per-case seed for `(base, property name, case index)`.
pub fn case_seed(base: u64, name: &str, case: u32) -> u64 {
    let mut s = base
        ^ fnv1a(name.as_bytes())
        ^ ((case as u64) << 1 | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Runs `prop` on `config.cases` random values from `strategy`.
///
/// On failure: greedily shrinks the counterexample, then panics with the
/// minimal input, the error, and the case seed (`GV_TESTKIT_SEED=…`
/// replays it — see the crate docs).
pub fn check<S: Strategy>(
    name: &str,
    config: &Config,
    strategy: &S,
    prop: impl Fn(&S::Value) -> Result<(), String>,
) {
    let run_one = |case: u32, seed: u64| {
        let mut rng = TestRng::new(seed);
        let value = strategy.generate(&mut rng);
        if let Err(err) = prop(&value) {
            let (minimal, min_err, steps) = shrink_failure(
                strategy,
                &prop,
                value.clone(),
                err.clone(),
                config.max_shrink_steps,
            );
            panic!(
                "property `{name}` falsified at case {case}/{total} (case seed {seed:#018x})\n  \
                 minimal input: {minimal:?}\n  \
                 error: {min_err}\n  \
                 original input ({steps} shrink steps earlier): {value:?}\n  \
                 original error: {err}\n  \
                 replay: GV_TESTKIT_SEED={seed:#x} cargo test {name}",
                total = config.cases,
            );
        }
    };
    match config.replay {
        Some(seed) => run_one(0, seed),
        None => {
            for case in 0..config.cases {
                run_one(case, case_seed(config.seed, name, case));
            }
        }
    }
}

/// Greedy shrink: repeatedly move to the first failing shrink candidate
/// until no candidate fails or the step budget runs out. Returns the
/// minimal failing value, its error, and the number of accepted steps.
fn shrink_failure<S: Strategy>(
    strategy: &S,
    prop: &impl Fn(&S::Value) -> Result<(), String>,
    mut current: S::Value,
    mut current_err: String,
    max_steps: u32,
) -> (S::Value, String, u32) {
    let mut steps = 0;
    'outer: while steps < max_steps {
        for candidate in strategy.shrink(&current) {
            if let Err(err) = prop(&candidate) {
                current = candidate;
                current_err = err;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, current_err, steps)
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Uniform integers in a half-open range; shrinks toward 0 when the range
/// contains it, else toward the lower bound.
#[derive(Debug, Clone)]
pub struct IntRange<T> {
    lo: T,
    hi: T,
}

macro_rules! int_strategy {
    ($ty:ty, $ctor:ident, $rng_method:ident) => {
        /// Uniform values in `range` (half-open), shrinking toward the
        /// origin (0 if contained, else the lower bound).
        pub fn $ctor(range: std::ops::Range<$ty>) -> IntRange<$ty> {
            assert!(range.start < range.end, "empty range {range:?}");
            IntRange {
                lo: range.start,
                hi: range.end,
            }
        }

        impl Strategy for IntRange<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                rng.$rng_method(self.lo..self.hi)
            }

            fn shrink(&self, &value: &$ty) -> Vec<$ty> {
                let origin: $ty = if self.lo <= 0 && 0 < self.hi {
                    0
                } else {
                    self.lo
                };
                if value == origin {
                    return Vec::new();
                }
                let mut out = vec![origin];
                // Halfway toward the origin, then one step toward it:
                // fast coarse moves first, a fine move to finish.
                let half = value - (value - origin) / 2;
                if half != value && half != origin {
                    out.push(half);
                }
                let step = if value > origin { value - 1 } else { value + 1 };
                if step != origin && step != half {
                    out.push(step);
                }
                out
            }
        }
    };
}

int_strategy!(i64, i64s, i64_in);
int_strategy!(usize, usizes, usize_in);

/// `i32` values in `range`, via the `i64` machinery.
pub fn i32s(range: std::ops::Range<i32>) -> MapI64ToI32 {
    MapI64ToI32(i64s(range.start as i64..range.end as i64))
}

/// See [`i32s`].
#[derive(Debug, Clone)]
pub struct MapI64ToI32(IntRange<i64>);

impl Strategy for MapI64ToI32 {
    type Value = i32;
    fn generate(&self, rng: &mut TestRng) -> i32 {
        self.0.generate(rng) as i32
    }
    fn shrink(&self, &value: &i32) -> Vec<i32> {
        self.0
            .shrink(&(value as i64))
            .into_iter()
            .map(|v| v as i32)
            .collect()
    }
}

/// Uniform `f64` in a half-open range; shrinks toward 0 (if contained)
/// or the lower bound, then through halving.
#[derive(Debug, Clone)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform finite `f64` values in `range`.
pub fn f64s(range: std::ops::Range<f64>) -> F64Range {
    assert!(range.start < range.end, "empty range {range:?}");
    F64Range {
        lo: range.start,
        hi: range.end,
    }
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.f64_in(self.lo..self.hi)
    }

    fn shrink(&self, &value: &f64) -> Vec<f64> {
        let origin = if self.lo <= 0.0 && 0.0 < self.hi {
            0.0
        } else {
            self.lo
        };
        if value == origin {
            return Vec::new();
        }
        let mut out = vec![origin];
        let half = origin + (value - origin) / 2.0;
        if half != value && half != origin {
            out.push(half);
        }
        let trunc = value.trunc();
        if trunc != value && trunc != origin && (self.lo..self.hi).contains(&trunc) {
            out.push(trunc);
        }
        out
    }
}

/// Fair booleans; `true` shrinks to `false`.
#[derive(Debug, Clone)]
pub struct Bools;

/// Fair booleans; `true` shrinks to `false`.
pub fn bools() -> Bools {
    Bools
}

impl Strategy for Bools {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.bool()
    }
    fn shrink(&self, &value: &bool) -> Vec<bool> {
        if value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// A strategy from a plain closure — no shrinking. The porcelain for
/// domain-specific generators (operator inputs, NAS workloads).
pub struct FromFn<F>(F);

/// Wraps `f` as a [`Strategy`] with no shrink candidates.
pub fn from_fn<T, F>(f: F) -> FromFn<F>
where
    T: Clone + std::fmt::Debug,
    F: Fn(&mut TestRng) -> T,
{
    FromFn(f)
}

impl<T, F> Strategy for FromFn<F>
where
    T: Clone + std::fmt::Debug,
    F: Fn(&mut TestRng) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Vectors of values from an element strategy, with a length range.
///
/// Shrinks by dropping halves, then single elements, then shrinking
/// individual elements — always respecting the minimum length.
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

/// Vectors of `elem` values with length in `len` (half-open).
pub fn vec_of<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "empty length range {len:?}");
    VecOf {
        elem,
        min_len: len.start,
        max_len: len.end,
    }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.usize_in(self.min_len..self.max_len);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        // Structural shrinks first: halves, then single removals.
        if n > self.min_len {
            if self.min_len == 0 && n > 1 {
                out.push(Vec::new());
            }
            let half = n / 2;
            if half >= self.min_len && half < n {
                out.push(value[..half].to_vec());
                out.push(value[n - half..].to_vec());
            }
            if n > self.min_len {
                for i in 0..n {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
        }
        // Element shrinks: first failing candidate wins, so propose the
        // per-position simplifications one at a time.
        for (i, x) in value.iter().enumerate() {
            for shrunk in self.elem.shrink(x) {
                let mut v = value.clone();
                v[i] = shrunk;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for shrunk in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = shrunk;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Fails the enclosing property (a closure returning
/// `Result<(), String>`) when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property when the two values differ, reporting
/// both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{} != {}\n    left: {:?}\n   right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n    left: {:?}\n   right: {:?}",
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(cases: u32) -> Config {
        // Bypass env overrides so the suite is hermetic even when the
        // outer invocation sets GV_TESTKIT_SEED.
        Config {
            cases,
            seed: DEFAULT_SEED,
            max_shrink_steps: 1000,
            replay: None,
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let ran = std::cell::Cell::new(0u32);
        check("always_true", &plain(64), &i64s(-100..100), |_| {
            ran.set(ran.get() + 1);
            Ok(())
        });
        assert_eq!(ran.get(), 64);
    }

    #[test]
    fn failing_property_panics_with_seed_and_minimal_input() {
        let result = std::panic::catch_unwind(|| {
            check(
                "find_forty_two_or_more",
                &plain(256),
                &i64s(0..1000),
                |&v| {
                    if v >= 42 {
                        Err(format!("hit {v}"))
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("GV_TESTKIT_SEED="), "{msg}");
        // Greedy shrinking must land on the boundary value.
        assert!(msg.contains("minimal input: 42"), "{msg}");
    }

    #[test]
    fn vec_shrinking_minimizes_both_length_and_elements() {
        let result = std::panic::catch_unwind(|| {
            check(
                "all_elements_small",
                &plain(256),
                &vec_of(i64s(-50..50), 0..40),
                |v| {
                    if v.iter().any(|&x| x >= 20) {
                        Err("element too large".into())
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        // Greedy removal + element shrinking minimizes to exactly one
        // element at the threshold: [20].
        assert!(msg.contains("minimal input: [20]"), "{msg}");
    }

    #[test]
    fn replay_reproduces_the_failing_case() {
        // First find a failing case seed the normal way.
        let result = std::panic::catch_unwind(|| {
            check("replayable", &plain(64), &i64s(0..100), |&v| {
                if v >= 90 {
                    Err("big".into())
                } else {
                    Ok(())
                }
            });
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        let seed_hex = msg
            .split("case seed ")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .expect("seed in message");
        let seed = u64::from_str_radix(seed_hex.trim_start_matches("0x"), 16).unwrap();
        // Replaying with that seed fails on the very first (only) case.
        let replay_cfg = Config {
            replay: Some(seed),
            ..plain(64)
        };
        let replayed = std::panic::catch_unwind(|| {
            check("replayable", &replay_cfg, &i64s(0..100), |&v| {
                if v >= 90 {
                    Err("big".into())
                } else {
                    Ok(())
                }
            });
        });
        assert!(replayed.is_err(), "replay must reproduce the failure");
    }

    #[test]
    fn case_seeds_differ_across_names_and_indices() {
        let a = case_seed(1, "prop_a", 0);
        let b = case_seed(1, "prop_b", 0);
        let c = case_seed(1, "prop_a", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prop_macros_return_errors_not_panics() {
        let f = |x: i64| -> Result<(), String> {
            prop_assert!(x < 10, "x too big: {x}");
            prop_assert_eq!(x % 2, 0);
            Ok(())
        };
        assert!(f(4).is_ok());
        assert!(f(12).unwrap_err().contains("x too big"));
        assert!(f(3).unwrap_err().contains("left"));
    }

    #[test]
    fn tuple_strategies_shrink_componentwise() {
        let s = (i64s(0..100), i64s(0..100));
        let candidates = s.shrink(&(10, 20));
        assert!(candidates.contains(&(0, 20)));
        assert!(candidates.contains(&(10, 0)));
    }
}
