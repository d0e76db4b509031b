//! # gv-testkit — the repository's own test substrate
//!
//! The correctness claims this repository makes are *algebraic*: the
//! operator contract (`gv_core::op`) demands associativity of `combine`
//! and accumulate/combine coherence, and every engine-agreement theorem
//! (sequential = shared-memory = message-passing) rests on them. Testing
//! those laws well requires randomized inputs, reproducible failures, and
//! minimal counterexamples — infrastructure that is itself part of the
//! correctness story. This crate owns that infrastructure with **zero
//! external dependencies**, so the whole workspace builds and tests with
//! `cargo build --release --offline && cargo test -q --offline` on a
//! machine that has never seen a crate registry.
//!
//! Two subsystems:
//!
//! * [`rng`] — deterministic, seedable PRNGs: [`rng::TestRng`]
//!   (splitmix64-seeded xoshiro256++) for test-case generation, and
//!   [`rng::Nas46`], bit-compatible with the NAS `randlc` stream that
//!   `gv-nas` reimplements (cross-checked by a test in that crate).
//! * [`prop`] — a small property-testing runner: [`prop::Strategy`]
//!   value generators with shrink candidates, [`prop::check`] which runs
//!   N cases, and on failure greedily shrinks the counterexample and
//!   panics with the **case seed** so the failure replays exactly.
//!
//! ## Reproducing a property failure
//!
//! A falsified property panics with a message like:
//!
//! ```text
//! property `par_sum_matches_seq` falsified at case 17/256 (case seed 0x9e3779b97f4a7c15)
//!   minimal input: ([-3], 2)
//!   error: 0 != -3
//!   replay: GV_TESTKIT_SEED=0x9e3779b97f4a7c15 cargo test par_sum_matches_seq
//! ```
//!
//! Setting `GV_TESTKIT_SEED` makes every [`prop::check`] in the process
//! run exactly one case whose generator is seeded with that value, so the
//! named test reproduces its failing input bit-for-bit (shrinking then
//! re-minimizes it). `GV_TESTKIT_CASES=n` overrides the per-law case
//! count instead, e.g. to run overnight soak loops.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod prop;
pub mod rng;

pub use prop::{check, Config, Strategy};
pub use rng::{Nas46, TestRng};
