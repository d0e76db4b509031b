//! Property tests of the scan schedule, on the in-tree `gv-testkit`
//! runner — the scan sibling of `allreduce_algorithms.rs`.
//!
//! The contract under test: shifted recursive doubling, the one schedule
//! every scan runs, computes the same rank-ordered `(exclusive,
//! inclusive)` prefixes as a sequential scan through every entry point —
//! for every rank count in 1..17 and for commutative and non-commutative
//! operators — and keeps its characteristic message count.
//!
//! Every failure message prints a case seed; rerun just that input with
//! `GV_TESTKIT_SEED=<seed> cargo test <test name>`.

use gv_testkit::prop::{check, i64s, usizes, vec_of, Config};
use gv_testkit::prop_assert_eq;

use gv_core::op::ScanKind;
use gv_core::ops::builtin::sum;
use gv_msgpass::{CallKind, Comm, Runtime};

fn cfg() -> Config {
    Config::new(128)
}

/// Sequential oracle: rank-order prefix folds of one value per rank.
fn prefix_oracle(per_rank: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let inclusive = gv_core::seq::scan(&sum::<i64>(), per_rank, ScanKind::Inclusive);
    let exclusive = gv_core::seq::scan(&sum::<i64>(), per_rank, ScanKind::Exclusive);
    (exclusive, inclusive)
}

/// Both halves of one value's scan through each entry point: `scan_both`,
/// and `scan_exclusive` (its identity as rank 0's `None`) with
/// `scan_inclusive`.
fn entry_points<T: Clone + Send + 'static>(
    comm: &Comm,
    mine: T,
    ident: impl Fn() -> T,
    wire: impl Fn(&T) -> usize + Copy,
    combine: impl FnMut(T, T) -> T + Copy,
) -> [(Option<T>, T); 2] {
    let both = comm.scan_both(mine.clone(), wire, combine);
    let exclusive = comm.scan_exclusive(mine.clone(), &ident, wire, combine);
    let inclusive = comm.scan_inclusive(mine, wire, combine);
    [both, ((comm.rank() > 0).then_some(exclusive), inclusive)]
}

/// The messages shifted recursive doubling moves at `p`:
/// `p·⌈log₂p⌉ − (2^⌈log₂p⌉ − 1)`.
fn rd_messages(p: usize) -> u64 {
    let rounds = p.next_power_of_two().trailing_zeros() as usize;
    (p * rounds + 1 - p.next_power_of_two()) as u64
}

#[test]
fn scalar_schedules_agree_with_the_sequential_oracle() {
    check(
        "scalar_schedules_agree_with_the_sequential_oracle",
        &cfg(),
        &(vec_of(i64s(-1000..1000), 1..17), usizes(1..17)),
        |(values, p)| {
            let p = *p;
            let per_rank: Vec<i64> = (0..p)
                .map(|r| values.get(r % values.len()).copied().unwrap_or(0))
                .collect();
            let (expected_ex, expected_inc) = prefix_oracle(&per_rank);
            let outcome = Runtime::new(p).run(|comm| {
                let mine = per_rank[comm.rank()];
                entry_points(comm, mine, || 0, |_| 8, |a, b| a + b)
            });
            for (r, runs) in outcome.results.into_iter().enumerate() {
                for (name, (ex, inc)) in ["both", "separate"].into_iter().zip(runs) {
                    prop_assert_eq!(inc, expected_inc[r], "{name} inclusive at rank {r}");
                    if r == 0 {
                        prop_assert_eq!(ex, None, "{name} rank 0 has no exclusive prefix");
                    } else {
                        prop_assert_eq!(ex, Some(expected_ex[r]), "{name} exclusive at rank {r}");
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn noncommutative_schedules_preserve_rank_order() {
    check(
        "noncommutative_schedules_preserve_rank_order",
        &cfg(),
        &usizes(1..17),
        |p| {
            let p = *p;
            let concat = |a: String, b: String| a + &b;
            let wire = |s: &String| s.len();
            let outcome = Runtime::new(p).run(|comm| {
                let mine = format!("[{}]", comm.rank());
                entry_points(comm, mine, String::new, wire, concat)
            });
            for (r, runs) in outcome.results.into_iter().enumerate() {
                let expected_inc: String = (0..=r).map(|q| format!("[{q}]")).collect();
                let expected_ex: String = (0..r).map(|q| format!("[{q}]")).collect();
                for (name, (ex, inc)) in ["both", "separate"].into_iter().zip(runs) {
                    prop_assert_eq!(&inc, &expected_inc, "{name} rank {r}");
                    if r == 0 {
                        prop_assert_eq!(&ex, &None, "{name} rank 0");
                    } else {
                        prop_assert_eq!(ex.as_deref(), Some(expected_ex.as_str()), "{name} {r}");
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn scan_both_counts_one_scan_call_per_schedule() {
    // The scan_both accounting convention: one CallKind::Scan per rank and
    // no Exscan, on the one schedule's message count; a dedicated
    // exclusive scan is one Exscan on the same schedule.
    for p in [1usize, 2, 5, 8] {
        let both = Runtime::new(p).run(move |comm| {
            let mine = comm.rank() as i64 + 1;
            comm.scan_both(mine, |_| 8, |a, b| a + b);
        });
        assert_eq!(both.stats.calls(CallKind::Scan), p as u64, "p={p}");
        assert_eq!(both.stats.calls(CallKind::Exscan), 0, "p={p}");
        assert_eq!(both.stats.messages, rd_messages(p), "p={p}");
        let exclusive = Runtime::new(p).run(move |comm| {
            let mine = comm.rank() as i64 + 1;
            comm.scan_exclusive(mine, || 0, |_| 8, |a, b| a + b);
        });
        assert_eq!(exclusive.stats.calls(CallKind::Scan), 0, "p={p}");
        assert_eq!(exclusive.stats.calls(CallKind::Exscan), p as u64, "p={p}");
        assert_eq!(exclusive.stats.messages, rd_messages(p), "p={p}");
    }
}

#[test]
fn message_counts_match_the_schedule_shapes() {
    // Shifted recursive doubling moves p·⌈log₂p⌉ − (2^⌈log₂p⌉ − 1)
    // messages; at p = 16 that is 16·4 − 15 = 49, whatever the state.
    assert_eq!(rd_messages(16), 49);
    for p in 1..=17usize {
        let scalar = Runtime::new(p).run(|comm| {
            comm.scan_both(1u64, |_| 8, |a, b| a + b);
        });
        assert_eq!(scalar.stats.messages, rd_messages(p), "p={p}");
        let wide = Runtime::new(p).run(|comm| {
            let add = |mut a: Vec<u64>, b: Vec<u64>| {
                a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                a
            };
            comm.scan_inclusive(vec![1u64; 8 << 10], |v| v.len() * 8, add);
        });
        assert_eq!(wide.stats.messages, rd_messages(p), "p={p}");
        assert_eq!(wide.stats.bytes, rd_messages(p) * (64 << 10), "p={p}");
    }
}

#[test]
fn selector_only_picks_eligible_scan_schedules() {
    // At any p and size a scan runs shifted recursive doubling: its
    // message count and bytes are that schedule's, for large states too.
    check(
        "selector_only_picks_eligible_scan_schedules",
        &Config::new(32),
        &(usizes(1..18), usizes(0..15)),
        |(p, log_bytes)| {
            let (p, elems) = (*p, (1usize << *log_bytes) / 8 + 1);
            let outcome = Runtime::new(p).run(move |comm| {
                let add = |mut a: Vec<u64>, b: Vec<u64>| {
                    a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                    a
                };
                let state = vec![comm.rank() as u64; elems];
                comm.scan_both(state, |v| v.len() * 8, add).1
            });
            for (r, got) in outcome.results.iter().enumerate() {
                prop_assert_eq!(got, &vec![(r * (r + 1) / 2) as u64; elems]);
            }
            prop_assert_eq!(outcome.stats.messages, rd_messages(p));
            prop_assert_eq!(outcome.stats.bytes, rd_messages(p) * 8 * elems as u64);
            Ok(())
        },
    );
}

#[test]
fn default_call_shapes_stay_on_recursive_doubling() {
    // Guard for the recorded figures: every call site's scan runs the
    // shifted recursive-doubling schedule, so FIG2/FIG3 and
    // mpi_call_stats recordings cannot move.
    for p in [2usize, 4, 8, 16] {
        let outcome = Runtime::new(p).run(|comm| {
            let n = comm.rank() as u64;
            comm.scan_inclusive(n, |_| 8, |a, b| a + b);
            comm.scan_exclusive(n, || 0, |_| 8, |a, b| a + b);
        });
        assert_eq!(outcome.stats.messages, 2 * rd_messages(p), "p={p}");
        assert_eq!(outcome.stats.bytes, 16 * rd_messages(p), "p={p}");
    }

    // The NAS IS offset computation (an 8-byte exclusive scan through
    // localview::local_xscan) is one exclusive scan on every rank.
    let keys_per_rank = 64usize;
    let outcome = Runtime::new(8).run(move |comm| {
        let keys: Vec<u32> = (0..keys_per_rank)
            .map(|i| ((comm.rank() * keys_per_rank + i) * 97 % 512) as u32)
            .collect();
        gv_nas::is::distributed_sort(comm, &keys, 512)
    });
    assert_eq!(outcome.stats.calls(CallKind::Exscan), 8);
    // Offsets are consistent: sorted blocks tile the global array.
    let mut expect = 0u64;
    for block in outcome.results {
        assert_eq!(block.global_offset, expect);
        expect += block.keys.len() as u64;
    }
}
