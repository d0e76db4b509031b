//! Property-based tests of the core invariants, on the in-tree
//! `gv-testkit` runner (no external proptest dependency).
//!
//! The two laws the operator contract demands (see `gv_core::op`):
//! decomposition invariance (any chunking of the accumulate phase yields
//! the sequential result) and the scan identities (exclusive ⊕ element =
//! inclusive; last inclusive = reduction).
//!
//! Every failure message prints a case seed; rerun just that input with
//! `GV_TESTKIT_SEED=<seed> cargo test <test name>`.

use gv_testkit::prop::{check, f64s, i32s, i64s, usizes, vec_of, Config};
use gv_testkit::{prop_assert, prop_assert_eq};

use gv_core::op::ScanKind;
use gv_core::ops::builtin::{max, min, sum};
use gv_core::ops::counts::Counts;
use gv_core::ops::mink::MinK;
use gv_core::ops::sorted::Sorted;
use gv_core::ops::stats::MeanVar;
use gv_core::ops::translate::Translated;
use gv_core::{par, seq};
use gv_executor::{chunk_ranges, Pool};
use gv_msgpass::Runtime;

fn pool() -> Pool {
    Pool::new(2)
}

fn cfg() -> Config {
    Config::new(256)
}

#[test]
fn par_sum_matches_seq_for_any_chunking() {
    check(
        "par_sum_matches_seq_for_any_chunking",
        &cfg(),
        &(vec_of(i64s(-1000..1000), 0..300), usizes(1..40)),
        |(data, parts)| {
            let expected = seq::reduce(&sum::<i64>(), data);
            prop_assert_eq!(par::reduce(&pool(), *parts, &sum::<i64>(), data), expected);
            Ok(())
        },
    );
}

#[test]
fn par_minmax_matches_seq() {
    check(
        "par_minmax_matches_seq",
        &cfg(),
        &(vec_of(i64s(i64::MIN..i64::MAX), 0..200), usizes(1..20)),
        |(data, parts)| {
            prop_assert_eq!(
                par::reduce(&pool(), *parts, &min::<i64>(), data),
                seq::reduce(&min::<i64>(), data)
            );
            prop_assert_eq!(
                par::reduce(&pool(), *parts, &max::<i64>(), data),
                seq::reduce(&max::<i64>(), data)
            );
            Ok(())
        },
    );
}

#[test]
fn mink_equals_sort_prefix() {
    check(
        "mink_equals_sort_prefix",
        &cfg(),
        &(vec_of(i32s(-500..500), 1..200), usizes(1..20)),
        |(data, k)| {
            let got = seq::reduce(&MinK::<i32>::new(*k), data);
            let mut oracle = data.clone();
            oracle.sort();
            oracle.truncate(*k);
            while oracle.len() < *k {
                oracle.push(i32::MAX); // identity padding
            }
            prop_assert_eq!(got, oracle);
            Ok(())
        },
    );
}

#[test]
fn mink_is_chunking_invariant() {
    check(
        "mink_is_chunking_invariant",
        &cfg(),
        &(
            vec_of(i32s(-500..500), 0..200),
            usizes(1..12),
            usizes(1..16),
        ),
        |(data, k, parts)| {
            let op = MinK::<i32>::new(*k);
            prop_assert_eq!(
                par::reduce(&pool(), *parts, &op, data),
                seq::reduce(&op, data)
            );
            Ok(())
        },
    );
}

#[test]
fn sorted_agrees_with_is_sorted() {
    check(
        "sorted_agrees_with_is_sorted",
        &cfg(),
        &(vec_of(i64s(-100..100), 0..150), usizes(1..12)),
        |(data, parts)| {
            let expected = data.windows(2).all(|w| w[0] <= w[1]);
            prop_assert_eq!(seq::reduce(&Sorted::<i64>::new(), data), expected);
            prop_assert_eq!(
                par::reduce(&pool(), *parts, &Sorted::<i64>::new(), data),
                expected
            );
            Ok(())
        },
    );
}

#[test]
fn scan_identities_hold() {
    check(
        "scan_identities_hold",
        &cfg(),
        &vec_of(i64s(-1000..1000), 0..200),
        |data| {
            let inclusive = seq::scan(&sum::<i64>(), data, ScanKind::Inclusive);
            let exclusive = seq::scan(&sum::<i64>(), data, ScanKind::Exclusive);
            // inclusive[i] = exclusive[i] + data[i]  (paper §1)
            for i in 0..data.len() {
                prop_assert_eq!(inclusive[i], exclusive[i] + data[i]);
            }
            // last inclusive element equals the reduction
            if let Some(last) = inclusive.last() {
                prop_assert_eq!(*last, seq::reduce(&sum::<i64>(), data));
            }
            // exclusive starts at the identity
            if let Some(first) = exclusive.first() {
                prop_assert_eq!(*first, 0);
            }
            Ok(())
        },
    );
}

#[test]
fn par_scan_matches_seq_scan() {
    check(
        "par_scan_matches_seq_scan",
        &cfg(),
        &(vec_of(i64s(-1000..1000), 0..200), usizes(1..16)),
        |(data, parts)| {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                prop_assert_eq!(
                    par::scan(&pool(), *parts, &sum::<i64>(), data, kind),
                    seq::scan(&sum::<i64>(), data, kind)
                );
            }
            Ok(())
        },
    );
}

#[test]
fn counts_total_is_input_length() {
    check(
        "counts_total_is_input_length",
        &cfg(),
        &(vec_of(usizes(0..16), 0..200), usizes(1..10)),
        |(data, parts)| {
            let op = Counts::new(16);
            let counts = par::reduce(&pool(), *parts, &op, data);
            prop_assert_eq!(counts.iter().sum::<u64>(), data.len() as u64);
            prop_assert_eq!(counts, seq::reduce(&op, data));
            Ok(())
        },
    );
}

#[test]
fn translate_form_is_semantically_identical() {
    check(
        "translate_form_is_semantically_identical",
        &cfg(),
        &vec_of(i64s(-500..500), 0..150),
        |data| {
            prop_assert_eq!(
                seq::reduce(&Translated(sum::<i64>()), data),
                seq::reduce(&sum::<i64>(), data)
            );
            let k = 5;
            prop_assert_eq!(
                seq::reduce(&Translated(MinK::<i64>::new(k)), data),
                seq::reduce(&MinK::<i64>::new(k), data)
            );
            Ok(())
        },
    );
}

#[test]
fn meanvar_merge_is_chunking_invariant() {
    check(
        "meanvar_merge_is_chunking_invariant",
        &cfg(),
        &(vec_of(f64s(-1e6..1e6), 0..200), usizes(1..12)),
        |(data, parts)| {
            let a = seq::reduce(&MeanVar, data);
            let b = par::reduce(&pool(), *parts, &MeanVar, data);
            prop_assert_eq!(a.count, b.count);
            prop_assert!((a.mean - b.mean).abs() <= 1e-6 * (1.0 + a.mean.abs()));
            prop_assert!((a.variance - b.variance).abs() <= 1e-4 * (1.0 + a.variance.abs()));
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Message-passing laws: every rank count from 1 to 8.
// ---------------------------------------------------------------------

#[test]
fn rsmpi_reduce_matches_seq_for_any_rank_count() {
    check(
        "rsmpi_reduce_matches_seq_for_any_rank_count",
        &cfg(),
        &(vec_of(i64s(-1000..1000), 0..120), usizes(1..9)),
        |(data, p)| {
            let p = *p;
            let expected = seq::reduce(&sum::<i64>(), data);
            let chunks: Vec<Vec<i64>> = chunk_ranges(data.len(), p)
                .map(|r| data[r].to_vec())
                .collect();
            let outcome = Runtime::new(p)
                .run(|comm| gv_rsmpi::reduce_all(comm, &sum::<i64>(), &chunks[comm.rank()]));
            prop_assert_eq!(outcome.results, vec![expected; p]);
            Ok(())
        },
    );
}

#[test]
fn rsmpi_scan_matches_seq_for_any_rank_count() {
    check(
        "rsmpi_scan_matches_seq_for_any_rank_count",
        &cfg(),
        &(vec_of(i64s(-1000..1000), 0..120), usizes(1..9)),
        |(data, p)| {
            let p = *p;
            let expected = seq::scan(&sum::<i64>(), data, ScanKind::Exclusive);
            let chunks: Vec<Vec<i64>> = chunk_ranges(data.len(), p)
                .map(|r| data[r].to_vec())
                .collect();
            let outcome = Runtime::new(p).run(|comm| {
                gv_rsmpi::scan(
                    comm,
                    &sum::<i64>(),
                    &chunks[comm.rank()],
                    ScanKind::Exclusive,
                )
            });
            let flat: Vec<i64> = outcome.results.into_iter().flatten().collect();
            prop_assert_eq!(flat, expected);
            Ok(())
        },
    );
}

#[test]
fn rsmpi_sorted_matches_oracle() {
    check(
        "rsmpi_sorted_matches_oracle",
        &cfg(),
        &(vec_of(i64s(0..50), 0..100), usizes(1..7)),
        |(data, p)| {
            let p = *p;
            let data: Vec<u32> = data.iter().map(|&x| x as u32).collect();
            let expected = data.windows(2).all(|w| w[0] <= w[1]);
            let chunks: Vec<Vec<u32>> = chunk_ranges(data.len(), p)
                .map(|r| data[r].to_vec())
                .collect();
            let outcome =
                Runtime::new(p).run(|comm| gv_nas::is::verify_rsmpi(comm, &chunks[comm.rank()]));
            prop_assert_eq!(outcome.results, vec![expected; p]);
            Ok(())
        },
    );
}

#[test]
fn all_is_verifiers_agree_with_oracle() {
    check(
        "all_is_verifiers_agree_with_oracle",
        &cfg(),
        &(vec_of(i64s(0..1000), 0..100), usizes(1..7)),
        |(data, p)| {
            let p = *p;
            let data: Vec<u32> = data.iter().map(|&x| x as u32).collect();
            let expected = data.windows(2).all(|w| w[0] <= w[1]);
            let chunks: Vec<Vec<u32>> = chunk_ranges(data.len(), p)
                .map(|r| data[r].to_vec())
                .collect();
            for (variant, name) in gv_nas::is::VerifyVariant::ALL {
                let outcome =
                    Runtime::new(p).run(|comm| variant.verify(comm, &chunks[comm.rank()]));
                prop_assert_eq!(outcome.results, vec![expected; p], "{}", name);
            }
            Ok(())
        },
    );
}
