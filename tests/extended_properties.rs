//! Property tests for the extension operators and the distributed-vector
//! API, plus failure-injection checks of the runtime's error paths.
//! Runs on the in-tree `gv-testkit` runner; failing cases print a
//! `GV_TESTKIT_SEED` replay line.

use gv_testkit::prop::{bools, check, f64s, i64s, usizes, vec_of, Config};
use gv_testkit::prop_assert_eq;

use gv_core::iter::reduce_iter;
use gv_core::monoid::{Monoid, MonoidOp};
use gv_core::op::ScanKind;
use gv_core::ops::builtin::{sum, Sum};
use gv_core::ops::histogram::Histogram;
use gv_core::ops::minmax::minmax;
use gv_core::ops::segmented::Segmented;
use gv_core::{par, seq};
use gv_executor::Pool;
use gv_msgpass::Runtime;
use gv_rsmpi::DistVector;

/// Affine maps `x ↦ a·x + b` of wrapping `i64`s as `(a, b)`, composed in
/// order: a non-commutative user monoid.
struct Affine;

impl Monoid for Affine {
    type T = (i64, i64);
    const COMMUTATIVE: bool = false;
    fn identity(&self) -> (i64, i64) {
        (1, 0)
    }
    fn combine(&self, f: &mut (i64, i64), g: &(i64, i64)) {
        *f = (
            g.0.wrapping_mul(f.0),
            g.0.wrapping_mul(f.1).wrapping_add(g.1),
        );
    }
}

fn cfg() -> Config {
    Config::new(256)
}

#[test]
fn minmax_matches_iterator_extremes() {
    check(
        "minmax_matches_iterator_extremes",
        &cfg(),
        &(vec_of(f64s(-1e9..1e9), 0..200), usizes(1..12)),
        |(data, parts)| {
            let expected = if data.is_empty() {
                None
            } else {
                let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                Some((lo, hi))
            };
            prop_assert_eq!(seq::reduce(&minmax(), data), expected);
            let pool = Pool::new(2);
            prop_assert_eq!(par::reduce(&pool, *parts, &minmax(), data), expected);
            Ok(())
        },
    );
}

#[test]
fn segmented_scan_equals_per_segment_scans() {
    check(
        "segmented_scan_equals_per_segment_scans",
        &cfg(),
        // Segment-start flags; position 0 forced true below.
        &(vec_of(i64s(-100..100), 1..150), vec_of(bools(), 1..150)),
        |(values, flags)| {
            let n = values.len().min(flags.len());
            let input: Vec<(i64, bool)> = (0..n).map(|i| (values[i], i == 0 || flags[i])).collect();
            let got = seq::scan(
                &Segmented(Sum::<i64>::default()),
                &input,
                ScanKind::Inclusive,
            );
            // Oracle: restart a running sum at every flag.
            let mut oracle = Vec::with_capacity(n);
            let mut acc = 0i64;
            for &(v, starts) in &input {
                acc = if starts { v } else { acc + v };
                oracle.push(acc);
            }
            prop_assert_eq!(got, oracle);
            Ok(())
        },
    );
}

#[test]
fn segmented_scan_is_chunking_invariant() {
    check(
        "segmented_scan_is_chunking_invariant",
        &cfg(),
        &(vec_of(i64s(-100..100), 0..150), usizes(1..10), usizes(1..9)),
        |(values, parts, stride)| {
            let input: Vec<(i64, bool)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i % stride == 0))
                .collect();
            let op = Segmented(Sum::<i64>::default());
            let expected = seq::scan(&op, &input, ScanKind::Inclusive);
            let pool = Pool::new(2);
            prop_assert_eq!(
                par::scan(&pool, *parts, &op, &input, ScanKind::Inclusive),
                expected
            );
            // The same segments over a non-commutative user monoid.
            let op = Segmented(MonoidOp(Affine));
            let input: Vec<((i64, i64), bool)> = input
                .iter()
                .map(|&(v, starts)| ((v % 3, v), starts))
                .collect();
            let expected = seq::scan(&op, &input, ScanKind::Inclusive);
            prop_assert_eq!(
                par::scan(&pool, *parts, &op, &input, ScanKind::Inclusive),
                expected
            );
            Ok(())
        },
    );
}

#[test]
fn histogram_bins_partition_the_input() {
    check(
        "histogram_bins_partition_the_input",
        &cfg(),
        &(vec_of(f64s(-50.0..150.0), 0..200), usizes(1..12)),
        |(data, bins)| {
            let h = Histogram::uniform(0.0, 100.0, *bins);
            let counts = seq::reduce(&h, data);
            prop_assert_eq!(counts.total(), data.len() as u64);
            prop_assert_eq!(counts.bins.len(), bins + 2);
            let under = data.iter().filter(|&&x| x < 0.0).count() as u64;
            let over = data.iter().filter(|&&x| x >= 100.0).count() as u64;
            prop_assert_eq!(counts.bins[0], under);
            prop_assert_eq!(*counts.bins.last().unwrap(), over);
            Ok(())
        },
    );
}

#[test]
fn iter_engine_matches_slice_engine() {
    check(
        "iter_engine_matches_slice_engine",
        &cfg(),
        &vec_of(i64s(-1000..1000), 0..150),
        |data| {
            prop_assert_eq!(
                reduce_iter(&sum::<i64>(), data.iter().copied()),
                seq::reduce(&sum::<i64>(), data)
            );
            Ok(())
        },
    );
}

#[test]
fn dist_vector_reduce_and_scan_match_oracle() {
    check(
        "dist_vector_reduce_and_scan_match_oracle",
        &cfg(),
        &(usizes(0..120), usizes(1..7), usizes(0..1000)),
        |&(global_len, p, seed)| {
            let seed = seed as u64;
            let oracle: Vec<i64> = (0..global_len as u64)
                .map(|i| ((i.wrapping_mul(seed + 7)) % 201) as i64 - 100)
                .collect();
            let expected_sum = seq::reduce(&sum::<i64>(), &oracle);
            let expected_scan = seq::scan(&sum::<i64>(), &oracle, ScanKind::Inclusive);
            let outcome = Runtime::new(p).run(move |comm| {
                let a = DistVector::generate(comm, global_len, |i| {
                    ((i.wrapping_mul(seed + 7)) % 201) as i64 - 100
                });
                let total = a.reduce(&sum::<i64>());
                let prefix = a.scan(&sum::<i64>(), ScanKind::Inclusive).gather_to_all();
                (total, prefix)
            });
            for (total, prefix) in outcome.results {
                prop_assert_eq!(total, expected_sum);
                prop_assert_eq!(&prefix, &expected_scan);
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Failure injection: the error paths users actually hit.
// ---------------------------------------------------------------------

#[test]
fn operator_panic_inside_distributed_reduce_unwinds_cleanly() {
    struct Bomb;
    impl gv_core::op::ReduceScanOp for Bomb {
        type In = i64;
        type State = i64;
        type Out = i64;
        fn ident(&self) -> i64 {
            0
        }
        fn accum(&self, s: &mut i64, x: &i64) {
            if *x == 13 {
                panic!("unlucky accumulate");
            }
            *s += *x;
        }
        fn combine(&self, a: &mut i64, b: i64) {
            *a += b;
        }
        fn red_gen(&self, s: i64) -> i64 {
            s
        }
        fn scan_gen(&self, s: &i64, _x: &i64) -> i64 {
            *s
        }
    }
    let result = std::panic::catch_unwind(|| {
        Runtime::new(4).run(|comm| {
            let local: Vec<i64> = vec![comm.rank() as i64 * 13]; // rank 1 holds 13
            gv_rsmpi::reduce_all(comm, &Bomb, &local)
        })
    });
    assert!(result.is_err(), "the panic must propagate, not deadlock");
}

#[test]
fn type_mismatch_on_receive_is_a_clear_panic() {
    let result = std::panic::catch_unwind(|| {
        Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, 42u32);
            } else {
                let _: String = comm.recv(0, 3); // wrong type
            }
        })
    });
    let err = result.expect_err("must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("type mismatch"), "got: {msg}");
}

#[test]
fn blocked_peers_of_a_panicking_rank_see_a_typed_shutdown() {
    // When one rank panics, the others' blocked receives unwind with a
    // `ShutdownError` payload (not a deadlock, not an opaque string).
    let result = std::panic::catch_unwind(|| {
        Runtime::new(3).run(|comm| {
            if comm.rank() == 1 {
                panic!("rank 1 exploded");
            }
            // Other ranks block on a message that will never come.
            let _: u8 = comm.recv(1, 5);
        })
    });
    let err = result.expect_err("must panic");
    // The *first* panic wins; depending on scheduling that is rank 1's
    // String or a peer's ShutdownError — both must be well-formed.
    if let Some(shutdown) = err.downcast_ref::<gv_msgpass::ShutdownError>() {
        assert_eq!(shutdown.kind, gv_msgpass::ShutdownKind::Aborted);
        assert_eq!(shutdown.tag, 5);
    } else {
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("rank 1 exploded"), "unexpected payload: {msg}");
    }
}

#[test]
fn pool_survives_repeated_job_panics() {
    let pool = Pool::new(2);
    for _ in 0..5 {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("job panic"));
            });
        }));
        assert!(r.is_err());
    }
    // Still fully functional afterwards.
    let data: Vec<u64> = (0..100).collect();
    assert_eq!(par::reduce(&pool, 4, &sum::<u64>(), &data), 4950);
}

/// `i64` addition that panics where told to: in `accum` at one input
/// value, in `scan_gen` at another.
struct Bomb {
    accum_at: i64,
    gen_at: i64,
}

impl gv_core::op::ReduceScanOp for Bomb {
    type In = i64;
    type State = i64;
    type Out = i64;
    fn ident(&self) -> i64 {
        0
    }
    fn accum(&self, s: &mut i64, x: &i64) {
        assert!(*x != self.accum_at, "bomb in accum");
        *s += *x;
    }
    fn combine(&self, a: &mut i64, b: i64) {
        *a += b;
    }
    fn red_gen(&self, s: i64) -> i64 {
        s
    }
    fn scan_gen(&self, s: &i64, x: &i64) -> i64 {
        assert!(*x != self.gen_at, "bomb in scan_gen");
        *s
    }
}

#[test]
fn a_panic_inside_a_chunk_resumes_on_the_caller() {
    // Four chunks of 25 on two threads: chunks 0 and 1 run on the caller,
    // 2 and 3 on a scoped thread.
    let pool = Pool::new(2);
    let data: Vec<i64> = (0..100).collect();
    let message = |run: &dyn Fn()| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the chunk's panic must reach the caller");
        payload.downcast_ref::<&str>().copied().unwrap_or_default()
    };
    for at in [13, 90] {
        let accum = Bomb {
            accum_at: at,
            gen_at: -1,
        };
        let generate = Bomb {
            accum_at: -1,
            gen_at: at,
        };
        let reduce = message(&|| {
            par::reduce(&pool, 4, &accum, &data);
        });
        assert_eq!(reduce, "bomb in accum", "reduce, chunk of {at}");
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let accumulate = message(&|| {
                par::scan(&pool, 4, &accum, &data, kind);
            });
            assert_eq!(accumulate, "bomb in accum", "scan, chunk of {at}");
            let rescan = message(&|| {
                par::scan(&pool, 4, &generate, &data, kind);
            });
            assert_eq!(rescan, "bomb in scan_gen", "rescan, chunk of {at}");
        }
    }
    // The same pool still runs both engines.
    let calm = Bomb {
        accum_at: -1,
        gen_at: -1,
    };
    assert_eq!(par::reduce(&pool, 4, &calm, &data), 4950);
    let expected = seq::scan(&sum::<i64>(), &data, ScanKind::Inclusive);
    assert_eq!(
        par::scan(&pool, 4, &calm, &data, ScanKind::Inclusive),
        expected
    );
}

#[test]
fn the_par_engine_never_starts_a_thread_per_part() {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// `i64` addition that records the threads its `accum` and its
    /// `scan_gen` run on. A scan starts its rescan's threads anew, so only
    /// `scan_gen` tells the threads of that phase apart.
    #[derive(Default)]
    struct Traced {
        accum: Mutex<HashSet<ThreadId>>,
        gen: Mutex<HashSet<ThreadId>>,
    }
    impl gv_core::op::ReduceScanOp for Traced {
        type In = i64;
        type State = i64;
        type Out = i64;
        fn ident(&self) -> i64 {
            0
        }
        fn accum(&self, s: &mut i64, x: &i64) {
            self.accum
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            *s += *x;
        }
        fn combine(&self, a: &mut i64, b: i64) {
            *a += b;
        }
        fn red_gen(&self, s: i64) -> i64 {
            s
        }
        fn scan_gen(&self, s: &i64, _x: &i64) -> i64 {
            self.gen.lock().unwrap().insert(std::thread::current().id());
            *s
        }
    }

    let pool = Pool::new(2);
    let data: Vec<i64> = (0..1000).map(|i| (i * 7) % 17 - 8).collect();
    let threads = |seen: &Mutex<HashSet<ThreadId>>| seen.lock().unwrap().len();

    let op = Traced::default();
    assert_eq!(
        par::reduce(&pool, 300, &op, &data),
        seq::reduce(&sum::<i64>(), &data)
    );
    let accumulated = threads(&op.accum);
    assert!(accumulated <= 2, "reduce ran on {accumulated} threads");

    for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
        let op = Traced::default();
        assert_eq!(
            par::scan(&pool, 300, &op, &data, kind),
            seq::scan(&sum::<i64>(), &data, kind)
        );
        let rescanned = threads(&op.gen);
        assert!(rescanned <= 2, "the rescan ran on {rescanned} threads");
    }
}

#[test]
fn scan_with_more_ranks_than_data_is_consistent() {
    // Extreme decomposition: 8 ranks, 2 elements.
    let outcome = Runtime::new(8).run(|comm| {
        let a = DistVector::generate(comm, 2, |i| i as i64 + 5);
        a.scan(&sum::<i64>(), ScanKind::Inclusive).gather_to_all()
    });
    for prefix in outcome.results {
        assert_eq!(prefix, vec![5, 11]);
    }
}
