//! Pins `gv_nas::randlc::Randlc` and `gv_testkit::rng::Nas46` to the
//! identical bit stream.
//!
//! Both implement the NPB `randlc` generator (x ← 5¹³·x mod 2⁴⁶); the
//! benchmark copy lives here in `gv-nas`, the test-input copy in
//! `gv-testkit`. Nothing in the type system ties them together, so this
//! test does: every variate, every state, and the O(log n) jump must
//! match bit for bit. If either implementation drifts, NAS
//! verification values silently stop meaning anything.
//!
//! `Randlc::fill` runs in vector lanes where the host has them, and the
//! benchmark's MG oracle calls `fill` itself, so a stream that was wrong
//! but self-consistent would pass there; here every tier `fill` is
//! compiled for is called directly and held to `Nas46::next_f64`, the copy
//! that knows nothing of lanes.

use gv_nas::randlc::{fill_tiers, Randlc, A, DEFAULT_SEED, FILL_LANES};
use gv_testkit::rng::Nas46;

/// Seeds at and above 2^46 included, which both sides must mask.
const SEEDS: [u64; 7] = [0, 1, DEFAULT_SEED, A, (1 << 46) - 1, 1 << 46, u64::MAX];

#[test]
fn default_streams_are_bit_identical() {
    let mut ours = Randlc::nas_default();
    let mut theirs = Nas46::nas_default();
    for step in 0..10_000u64 {
        assert_eq!(
            ours.next_f64().to_bits(),
            theirs.next_f64().to_bits(),
            "variate diverged at step {step}"
        );
        assert_eq!(
            ours.state(),
            theirs.state(),
            "state diverged at step {step}"
        );
    }
}

#[test]
fn arbitrary_seeds_agree() {
    for seed in SEEDS {
        let mut ours = Randlc::new(seed);
        let mut theirs = Nas46::new(seed);
        assert_eq!(ours.state(), theirs.state(), "seed {seed}: initial state");
        for step in 0..256u64 {
            assert_eq!(
                ours.next_f64().to_bits(),
                theirs.next_f64().to_bits(),
                "seed {seed}: diverged at step {step}"
            );
        }
    }
}

#[test]
fn log_time_jumps_agree_with_stepping_and_with_each_other() {
    for n in [0u64, 1, 2, 7, 1_000, 1 << 20, 1 << 45] {
        let jumped_ours = Randlc::nas_default().jumped(n);
        let jumped_theirs = Nas46::nas_default().jumped(n);
        assert_eq!(jumped_ours.state(), jumped_theirs.state(), "jump({n})");
    }
    // And the jump really is n sequential steps.
    let mut stepped = Nas46::nas_default();
    for _ in 0..1_000 {
        stepped.next_f64();
    }
    assert_eq!(
        stepped.state(),
        Randlc::nas_default().jumped(1_000).state(),
        "jump(1000) != 1000 steps"
    );
}

/// Lengths around every seam of the lane body: nothing, less than one
/// group, exactly one (the chain seeds the lanes and no lane steps), one
/// lane step with and without a tail, and long runs.
const FILL_LENGTHS: [usize; 9] = [
    0,
    1,
    FILL_LANES - 1,
    FILL_LANES,
    FILL_LANES + 1,
    2 * FILL_LANES,
    2 * FILL_LANES + 5,
    4097,
    1 << 16,
];

/// `ours.fill_on(tier, ..)` must write `theirs.next_f64()`'s values and
/// leave `theirs`'s state, for every tier and length.
fn assert_fill_matches_stepping(start: Randlc, reference: Nas46, context: &str) {
    assert_eq!(start.state(), reference.state(), "{context}: initial state");
    for &tier in fill_tiers() {
        for len in FILL_LENGTHS {
            let mut ours = start;
            let mut theirs = reference;
            let mut filled = vec![-1.0; len];
            ours.fill_on(tier, &mut filled);
            for (i, v) in filled.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    theirs.next_f64().to_bits(),
                    "{context}: {} tier, variate {i} of {len}",
                    tier.name()
                );
            }
            assert_eq!(
                ours.state(),
                theirs.state(),
                "{context}: {} tier, state after {len}",
                tier.name()
            );
        }
    }
}

#[test]
fn every_fill_tier_is_the_stepped_stream_bit_for_bit_and_in_final_state() {
    for seed in SEEDS {
        assert_fill_matches_stepping(Randlc::new(seed), Nas46::new(seed), &format!("seed {seed}"));
    }
    for n in [1u64, 31, 1_000, (1 << 20) + 7, 1 << 45] {
        assert_fill_matches_stepping(
            Randlc::nas_default().jumped(n),
            Nas46::nas_default().jumped(n),
            &format!("jumped {n}"),
        );
    }
}

#[test]
fn two_consecutive_fills_equal_one() {
    let total = 3 * FILL_LANES + 7;
    for &tier in fill_tiers() {
        let mut whole = vec![0.0; total];
        let mut once = Randlc::nas_default();
        once.fill_on(tier, &mut whole);
        for cut in [
            0,
            1,
            FILL_LANES - 1,
            FILL_LANES,
            FILL_LANES + 1,
            2 * FILL_LANES + 3,
            total,
        ] {
            let mut parts = vec![0.0; total];
            let mut twice = Randlc::nas_default();
            let (head, tail) = parts.split_at_mut(cut);
            twice.fill_on(tier, head);
            twice.fill_on(tier, tail);
            assert_eq!(parts, whole, "{} tier, cut at {cut}", tier.name());
            assert_eq!(
                twice.state(),
                once.state(),
                "{} tier, cut at {cut}",
                tier.name()
            );
        }
    }
}

#[test]
fn the_dispatched_fill_is_the_stepped_stream_too() {
    // `fill` itself, whatever it dispatches to on this host.
    let mut ours = Randlc::nas_default();
    let mut theirs = Nas46::nas_default();
    let mut filled = vec![0.0; 4097];
    ours.fill(&mut filled);
    for (i, v) in filled.iter().enumerate() {
        assert_eq!(v.to_bits(), theirs.next_f64().to_bits(), "variate {i}");
    }
    assert_eq!(ours.state(), theirs.state());
}
