//! Cross-crate integration tests pinning every worked example in the
//! paper, executed on all three engines (sequential, shared-memory,
//! message-passing) — the end-to-end statement of the global-view
//! abstraction: *the call site does not change when the execution model
//! does*.

use global_view::prelude::*;
use gv_executor::{chunk_ranges, Pool};
use gv_msgpass::Runtime;

/// The ordered set used throughout the paper's §1 and §3.
const PAPER_SET: [i64; 10] = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3];

fn blocks<T: Clone>(data: &[T], p: usize) -> Vec<Vec<T>> {
    chunk_ranges(data.len(), p)
        .map(|r| data[r].to_vec())
        .collect()
}

/// Runs a reduction on all three engines and asserts agreement.
fn reduce_everywhere<Op>(make_op: impl Fn() -> Op + Send + Sync, data: &[Op::In]) -> Op::Out
where
    Op: ReduceScanOp + Sync,
    Op::In: Clone + Sync + Send,
    Op::State: Clone + Send + 'static,
    Op::Out: PartialEq + std::fmt::Debug + Send,
{
    let sequential = gv_core::seq::reduce(&make_op(), data);
    let pool = Pool::new(2);
    for parts in [1, 3, 10] {
        let par = gv_core::par::reduce(&pool, parts, &make_op(), data);
        assert_eq!(par, sequential, "shared-memory engine, parts={parts}");
    }
    for p in [1usize, 2, 5] {
        let chunks = blocks(data, p);
        let outcome = Runtime::new(p)
            .run(|comm| gv_rsmpi::reduce_all(comm, &make_op(), &chunks[comm.rank()]));
        for got in outcome.results {
            assert_eq!(got, sequential, "message-passing engine, p={p}");
        }
    }
    sequential
}

#[test]
fn section1_sum_reduction_is_55() {
    assert_eq!(reduce_everywhere(sum::<i64>, &PAPER_SET), 55);
}

#[test]
fn section1_scans() {
    let inclusive = gv_core::seq::scan(&sum::<i64>(), &PAPER_SET, ScanKind::Inclusive);
    assert_eq!(inclusive, vec![6, 13, 19, 22, 30, 32, 40, 44, 52, 55]);
    let exclusive = gv_core::seq::scan(&sum::<i64>(), &PAPER_SET, ScanKind::Exclusive);
    assert_eq!(exclusive, vec![0, 6, 13, 19, 22, 30, 32, 40, 44, 52]);
}

#[test]
fn section311_mink() {
    // `minimums = mink(integer, k) reduce A` with k = 3 over the §1 set.
    let got = reduce_everywhere(|| MinK::<i64>::new(3), &PAPER_SET);
    assert_eq!(got, vec![2, 3, 3]);
}

#[test]
fn section312_mini() {
    // `var (val, loc) = mini(integer) reduce [i in 1..n] (A(i), i);`
    let pairs: Vec<(i64, usize)> = PAPER_SET.iter().copied().zip(1..).collect();
    let got = reduce_everywhere(mini::<i64, usize>, &pairs);
    assert_eq!(got, Some((2, 6)));
}

#[test]
fn section313_counts_reduce_and_scan() {
    let octants: Vec<usize> = PAPER_SET.iter().map(|&o| o as usize - 1).collect();
    let counts = reduce_everywhere(|| Counts::new(8), &octants);
    assert_eq!(counts, vec![0, 1, 2, 1, 0, 2, 1, 3]);

    // Scan rankings across all engines.
    let expected = vec![1u64, 1, 2, 1, 1, 1, 2, 1, 3, 2];
    let seq = gv_core::seq::scan(&BucketRank::new(8), &octants, ScanKind::Inclusive);
    assert_eq!(seq, expected);
    let pool = Pool::new(2);
    for parts in [1, 2, 7] {
        let par = gv_core::par::scan(
            &pool,
            parts,
            &BucketRank::new(8),
            &octants,
            ScanKind::Inclusive,
        );
        assert_eq!(par, expected);
    }
    for p in [1usize, 3, 10] {
        let chunks = blocks(&octants, p);
        let outcome = Runtime::new(p).run(|comm| {
            gv_rsmpi::scan(
                comm,
                &BucketRank::new(8),
                &chunks[comm.rank()],
                ScanKind::Inclusive,
            )
        });
        let flat: Vec<u64> = outcome.results.into_iter().flatten().collect();
        assert_eq!(flat, expected, "p={p}");
    }
}

#[test]
fn section314_sorted() {
    assert!(!reduce_everywhere(Sorted::<i64>::new, &PAPER_SET));
    let mut ascending = PAPER_SET.to_vec();
    ascending.sort();
    assert!(reduce_everywhere(Sorted::<i64>::new, &ascending));
}

#[test]
fn section2_local_view_reduces_to_global_view_for_monoids() {
    // "If the input type, output type, and state type are the same, then
    // the global-view abstraction reduces to the local-view abstraction."
    struct GcdMonoid;
    impl Monoid for GcdMonoid {
        type T = u64;
        fn identity(&self) -> u64 {
            0
        }
        fn combine(&self, a: &mut u64, b: &u64) {
            let (mut x, mut y) = (*a, *b);
            while y != 0 {
                (x, y) = (y, x % y);
            }
            *a = x;
        }
    }
    let data: Vec<u64> = vec![24, 36, 60, 96];
    let got = reduce_everywhere(|| MonoidOp(GcdMonoid), &data);
    assert_eq!(got, 12);
}

#[test]
fn mean_variance_showcase_agrees_across_engines() {
    let data: Vec<f64> = (0..5_000).map(|i| ((i * 73) % 997) as f64 / 13.0).collect();
    let sequential = gv_core::seq::reduce(&MeanVar, &data);
    for p in [2usize, 7] {
        let chunks = blocks(&data, p);
        let outcome =
            Runtime::new(p).run(|comm| gv_rsmpi::reduce_all(comm, &MeanVar, &chunks[comm.rank()]));
        for got in outcome.results {
            assert_eq!(got.count, sequential.count);
            assert!((got.mean - sequential.mean).abs() < 1e-9);
            assert!((got.variance - sequential.variance).abs() < 1e-6);
        }
    }
}
