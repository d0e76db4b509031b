//! Golden-value regression pins: deterministic quantities captured from
//! the current implementation, guarding against silent behavioural drift
//! (the NPB stream, ZRAN3 extrema, MG residuals, modeled times, which
//! benchmark operators reach the block-kernel tier).
//!
//! Heavy full-class runs are `#[ignore]`d; run them with
//! `cargo test --release -- --ignored`.

use std::sync::{Mutex, MutexGuard};

use gv_core::kernel::dispatch_counts;
use gv_core::op::ScanKind;
use gv_core::ops::builtin::{min, sum};
use gv_core::ops::{BucketRank, Counts, MeanVar, MinK, TopBottomK};
use gv_core::seq;
use gv_msgpass::Runtime;
use gv_nas::is::{distributed_sort, generate_keys, VerifyVariant};
use gv_nas::mg::vcycle::v_cycle;
use gv_nas::mg::zran3::{zran3, Zran3Variant};
use gv_nas::mg::Slab;
use gv_nas::randlc::{pow46, Randlc, A, DEFAULT_SEED};
use gv_nas::{IsClass, MgClass};

/// The kernel dispatch counters are process-wide and the harness runs the
/// tests of this file on parallel threads, so every test that runs an
/// operator holds this for its whole body: the dispatch pin then reads a
/// delta nobody else contributed to.
fn operators_run_one_test_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed while holding it has already been reported.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn no_benchmark_operator_dispatches_scalar() {
    // The six `local_heavy` calls and the accumulate phase of the
    // operators of `mg_zran3`, `large_state` and `overlap`, through the
    // sequential engine: each must take its block kernel, so a later
    // change to an operator cannot drop it back to the per-element loop
    // unnoticed (`core.kernel.blocks_scalar` in the benchmark is a count
    // nobody reads until it moves). `BucketRank`'s *rescan* is
    // per-element by design — each output reads its own bucket — so it is
    // reduced here, not scanned.
    let _turn = operators_run_one_test_at_a_time();
    let n = 5000;
    let ints: Vec<i64> = (0..n).map(|i| (i * 7919) % 1009 - 500).collect();
    let floats: Vec<f64> = ints.iter().map(|&v| v as f64 / 8.0).collect();
    let pairs: Vec<(f64, u64)> = floats.iter().copied().zip(0u64..).collect();
    let buckets: Vec<usize> = ints
        .iter()
        .map(|v| v.unsigned_abs() as usize % 64)
        .collect();
    let (kernel_before, scalar_before) = dispatch_counts();
    seq::reduce(&sum::<f64>(), &floats);
    seq::reduce(&min::<i64>(), &ints);
    seq::scan(&sum::<i64>(), &ints, ScanKind::Inclusive);
    seq::scan(&min::<f64>(), &floats, ScanKind::Exclusive);
    seq::reduce(&MeanVar, &floats);
    seq::reduce(&MinK::<i64>::new(10), &ints);
    seq::reduce(&TopBottomK::<f64, u64>::new(10), &pairs);
    seq::reduce(&Counts::new(64), &buckets);
    seq::reduce(&BucketRank::new(64), &buckets);
    let (kernel_after, scalar_after) = dispatch_counts();
    assert_eq!(
        scalar_after - scalar_before,
        0,
        "a benchmark operator fell off the block tier"
    );
    assert_eq!(
        kernel_after - kernel_before,
        9,
        "one kernel dispatch per call"
    );
}

#[test]
fn npb_stream_is_pinned() {
    // First three variates of the canonical NPB stream — any change here
    // breaks bit-compatibility with the reference benchmarks.
    let mut g = Randlc::nas_default();
    let v: Vec<u64> = (0..3).map(|_| (g.next_f64() * 1e15) as u64).collect();
    let mut h = Randlc::nas_default();
    let states: Vec<u64> = (0..3)
        .map(|_| {
            h.next_f64();
            h.state()
        })
        .collect();
    // Exact integer states (no float rounding involved).
    assert_eq!(
        states[0],
        (DEFAULT_SEED as u128 * A as u128 % (1 << 46)) as u64
    );
    assert_eq!(pow46(A, 1), A);
    // Coarse float pins (15 significant digits).
    assert_eq!(v.len(), 3);
    for (value, state) in v.iter().zip(&states) {
        let expect = (*state as f64 / (1u64 << 46) as f64 * 1e15) as u64;
        assert!(value.abs_diff(expect) <= 1, "{value} vs {expect}");
    }
}

#[test]
fn zran3_class_s_extrema_are_pinned() {
    let _turn = operators_run_one_test_at_a_time();
    // The location and magnitude of the global maximum of the 32³ NPB
    // field — fixed by the generator, independent of rank count.
    let outcome = Runtime::new(2).run(|comm| {
        let mut slab = Slab::for_rank(32, comm.rank(), comm.size());
        zran3(comm, &mut slab, 10, Zran3Variant::Rsmpi)
    });
    let extrema = &outcome.results[0];
    assert_eq!(extrema.largest.len(), 10);
    assert_eq!(extrema.smallest.len(), 10);
    // Max > 0.9999, min < 0.0001 for a 32768-sample uniform field, and
    // top-1 strictly greater than top-2 (distinct positions).
    assert!(extrema.largest[0].0 > 0.9999);
    assert!(extrema.smallest[0].0 < 1e-3);
    assert!(extrema.largest[0].1 != extrema.largest[1].1);
    // Cross-check: the exact same answer at p = 1 and p = 2.
    let serial = Runtime::new(1).run(|comm| {
        let mut slab = Slab::for_rank(32, 0, 1);
        zran3(comm, &mut slab, 10, Zran3Variant::Rsmpi)
    });
    assert_eq!(extrema, &serial.results[0]);
}

#[test]
fn mg_class_s_first_residual_is_pinned() {
    let _turn = operators_run_one_test_at_a_time();
    // Deterministic at fixed p (reduction order fixed): the class-S
    // first-cycle L2 residual. Captured from the current implementation;
    // combined with monotone-decrease tests this pins the whole stencil
    // stack.
    let outcome = Runtime::new(2).run(|comm| {
        let class = MgClass::S;
        let mut v = Slab::for_rank(class.n, comm.rank(), comm.size());
        zran3(comm, &mut v, 10, Zran3Variant::Rsmpi);
        let mut u = Slab::for_rank(class.n, comm.rank(), comm.size());
        let mut r = v.clone();
        v_cycle(comm, &mut u, &v, &mut r).0
    });
    let l2 = outcome.results[0];
    assert!(
        (l2 - 4.322785488e-3).abs() < 1e-9,
        "class-S first-cycle L2 residual drifted: {l2}"
    );
}

#[test]
fn modeled_times_are_deterministic() {
    let _turn = operators_run_one_test_at_a_time();
    // The cost model must be run-to-run exact (no wall-clock leakage).
    let run = || {
        Runtime::new(8)
            .run(|comm| {
                let keys = generate_keys(IsClass::S, comm.rank(), comm.size());
                let block = distributed_sort(comm, &keys, IsClass::S.max_key());
                VerifyVariant::Rsmpi.verify(comm, &block.keys)
            })
            .modeled_seconds
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "modeled time must be deterministic");
    assert!(a > 0.0);
}

#[test]
#[ignore = "full NAS class A: ~8M keys, run with --ignored --release"]
fn full_class_a_is_pipeline() {
    let _turn = operators_run_one_test_at_a_time();
    for (variant, _) in VerifyVariant::ALL {
        let outcome =
            Runtime::new(8).run(move |comm| gv_nas::is::run_is(comm, IsClass::A, variant));
        assert!(outcome.results.iter().all(|(ok, _)| *ok));
    }
}

#[test]
#[ignore = "full MG class W (128³): run with --ignored --release"]
fn full_class_w_mg_converges() {
    let _turn = operators_run_one_test_at_a_time();
    let outcome = Runtime::new(4).run(|comm| {
        let class = MgClass::W;
        let mut v = Slab::for_rank(class.n, comm.rank(), comm.size());
        zran3(comm, &mut v, 10, Zran3Variant::Mpi);
        let mut u = Slab::for_rank(class.n, comm.rank(), comm.size());
        let mut r = v.clone();
        let first = v_cycle(comm, &mut u, &v, &mut r).0;
        let mut last = first;
        for _ in 0..3 {
            last = v_cycle(comm, &mut u, &v, &mut r).0;
        }
        (first, last)
    });
    for (first, last) in outcome.results {
        assert!(last < first * 0.5);
    }
}
