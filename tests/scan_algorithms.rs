//! Property tests of the three scan schedules and the cost-driven
//! selector, on the in-tree `gv-testkit` runner — the scan sibling of
//! `allreduce_algorithms.rs`.
//!
//! The contract under test: shifted recursive doubling, the
//! work-efficient binomial up/down-sweep, and the pipelined chain all
//! compute the same rank-ordered `(exclusive, inclusive)` prefixes as a
//! sequential scan — for every rank count in 1..17, for commutative and
//! non-commutative operators, and for empty states — while each schedule
//! keeps its characteristic message count and the selector never picks an
//! ineligible schedule.
//!
//! Every failure message prints a case seed; rerun just that input with
//! `GV_TESTKIT_SEED=<seed> cargo test <test name>`.

use gv_testkit::prop::{check, i64s, usizes, vec_of, Config};
use gv_testkit::prop_assert_eq;

use gv_core::op::ScanKind;
use gv_core::ops::builtin::sum;
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_msgpass::collectives::tree::whole;
use gv_msgpass::ScanAlgorithm::{Binomial, PipelinedChain, RecursiveDoubling};
use gv_msgpass::{CallKind, CostModel, Runtime, ScanAlgorithm};

fn cfg() -> Config {
    Config::new(128)
}

/// Sequential oracle: rank-order prefix folds of one value per rank.
fn prefix_oracle(per_rank: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let inclusive = gv_core::seq::scan(&sum::<i64>(), per_rank, ScanKind::Inclusive);
    let exclusive = gv_core::seq::scan(&sum::<i64>(), per_rank, ScanKind::Exclusive);
    (exclusive, inclusive)
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
                let selector = comm.scan_both(mine, |_| 8, |a, b| a + b);
                let rd =
                    comm.scan_both_by((RecursiveDoubling, 1), mine, whole(), |_| 8, |a, b| a + b);
                let bin = comm.scan_both_by((Binomial, 1), mine, whole(), |_| 8, |a, b| a + b);
                (selector, rd, bin)
            });
            for (r, (selector, rd, bin)) in outcome.results.into_iter().enumerate() {
                for (name, (ex, inc)) in [("selector", selector), ("rd", rd), ("binomial", bin)] {
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
fn pipelined_chain_agrees_on_splittable_states() {
    // Vector states of width 0..24 with element-wise sum: widths below
    // the segment count exercise empty segments.
    check(
        "pipelined_chain_agrees_on_splittable_states",
        &cfg(),
        &(vec_of(i64s(-500..500), 0..24), usizes(1..17), usizes(1..9)),
        |(data, p, segments)| {
            let (p, segments) = (*p, *segments);
            let width = data.len();
            let add = |mut a: Vec<i64>, b: Vec<i64>| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            };
            let wire = |v: &Vec<i64>| v.len() * 8;
            let outcome = Runtime::new(p).run(|comm| {
                let r = comm.rank() as i64;
                let mine: Vec<i64> = data.iter().map(|&x| x + r).collect();
                let chain = comm.scan_both_by(
                    (PipelinedChain, segments),
                    mine.clone(),
                    (split_vec_segments, unsplit_vec_segments),
                    wire,
                    add,
                );
                let selector = comm.scan_both_splittable(
                    mine.clone(),
                    split_vec_segments,
                    unsplit_vec_segments,
                    wire,
                    add,
                );
                let rd = comm.scan_both_by((RecursiveDoubling, 1), mine, whole(), wire, add);
                (chain, selector, rd)
            });
            for (r, (chain, selector, rd)) in outcome.results.into_iter().enumerate() {
                let expected_inc: Vec<i64> = (0..width)
                    .map(|i| (0..=r as i64).map(|q| data[i] + q).sum())
                    .collect();
                let expected_ex: Vec<i64> = (0..width)
                    .map(|i| (0..r as i64).map(|q| data[i] + q).sum())
                    .collect();
                for (name, (ex, inc)) in [("chain", chain), ("selector", selector), ("rd", rd)] {
                    prop_assert_eq!(&inc, &expected_inc, "{name} inclusive at rank {r}");
                    if r == 0 {
                        prop_assert_eq!(&ex, &None, "{name} rank 0");
                    } else {
                        prop_assert_eq!(ex.as_ref(), Some(&expected_ex), "{name} rank {r}");
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
                let selector = comm.scan_both(mine.clone(), wire, concat);
                let rd =
                    comm.scan_both_by((RecursiveDoubling, 1), mine.clone(), whole(), wire, concat);
                let bin = comm.scan_both_by((Binomial, 1), mine, whole(), wire, concat);
                // Chain needs a splittable state; element-wise string
                // concatenation distributes over contiguous chunking and
                // is still non-commutative.
                let rows = vec![format!("a{}", comm.rank()), format!("b{}", comm.rank())];
                let chain = comm.scan_both_by(
                    (PipelinedChain, 2),
                    rows,
                    (split_vec_segments, unsplit_vec_segments),
                    |v: &Vec<String>| v.iter().map(String::len).sum(),
                    |mut a: Vec<String>, b: Vec<String>| {
                        for (x, y) in a.iter_mut().zip(b) {
                            x.push_str(&y);
                        }
                        a
                    },
                );
                (selector, rd, bin, chain)
            });
            for (r, (selector, rd, bin, chain)) in outcome.results.into_iter().enumerate() {
                let expected_inc: String = (0..=r).map(|q| format!("[{q}]")).collect();
                let expected_ex: String = (0..r).map(|q| format!("[{q}]")).collect();
                for (name, (ex, inc)) in [("selector", selector), ("rd", rd), ("binomial", bin)] {
                    prop_assert_eq!(&inc, &expected_inc, "{name} rank {r}");
                    if r == 0 {
                        prop_assert_eq!(&ex, &None, "{name} rank 0");
                    } else {
                        prop_assert_eq!(ex.as_deref(), Some(expected_ex.as_str()), "{name} {r}");
                    }
                }
                let chain_a: String = (0..=r).map(|q| format!("a{q}")).collect();
                let chain_b: String = (0..=r).map(|q| format!("b{q}")).collect();
                prop_assert_eq!(&chain.1, &vec![chain_a, chain_b], "chain rank {r}");
            }
            Ok(())
        },
    );
}

#[test]
fn scan_both_counts_one_scan_call_per_schedule() {
    // The scan_both accounting convention holds for every schedule: one
    // CallKind::Scan per rank, no Exscan, and the run is attributed to
    // exactly the schedule that executed.
    for p in [1usize, 2, 5, 8] {
        for algo in ScanAlgorithm::ALL {
            let outcome = Runtime::new(p).run(move |comm| {
                let mine = comm.rank() as i64 + 1;
                comm.scan_both_by((algo, 1), mine, whole(), |_| 8, |a, b| a + b);
            });
            let name = algo.name();
            assert_eq!(
                outcome.stats.calls(CallKind::Scan),
                p as u64,
                "{name} p={p}"
            );
            assert_eq!(outcome.stats.calls(CallKind::Exscan), 0, "{name} p={p}");
            assert_eq!(
                outcome.stats.scan_algorithm_calls(algo),
                p as u64,
                "{name} p={p} attribution"
            );
        }
    }
}

#[test]
fn message_counts_match_the_schedule_shapes() {
    // Shifted recursive doubling moves p·⌈log₂p⌉ − (2^⌈log₂p⌉ − 1)
    // messages; at p = 16 that is 16·4 − 15 = 49. The binomial sweeps
    // move 2(p−1) − ⌈log₂p⌉ = 26, and the chain moves (p−1)·S.
    let rd = Runtime::new(16).run(|comm| {
        comm.scan_both_by((RecursiveDoubling, 1), 1u64, whole(), |_| 8, |a, b| a + b);
    });
    assert_eq!(rd.stats.messages, 49);

    let bin = Runtime::new(16).run(|comm| {
        comm.scan_both_by((Binomial, 1), 1u64, whole(), |_| 8, |a, b| a + b);
    });
    assert_eq!(bin.stats.messages, 26);

    let chain = Runtime::new(16).run(|comm| {
        comm.scan_both_by(
            (PipelinedChain, 3),
            vec![1u64; 6],
            (split_vec_segments, unsplit_vec_segments),
            |v: &Vec<u64>| v.len() * 8,
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    });
    assert_eq!(chain.stats.messages, 15 * 3);
}

#[test]
fn selector_only_picks_eligible_scan_schedules() {
    check(
        "selector_only_picks_eligible_scan_schedules",
        &cfg(),
        &(usizes(1..64), usizes(0..21)),
        |(p, log_bytes)| {
            let cost = CostModel::cluster_2006();
            let bytes = 1usize << *log_bytes;
            for splittable in [true, false] {
                let (picked, _) = ScanAlgorithm::select(&cost, *p, bytes, splittable);
                if picked == ScanAlgorithm::PipelinedChain && !(splittable && *p >= 2) {
                    return Err(format!(
                        "chain selected for splittable={splittable} p={p} bytes={bytes}"
                    ));
                }
                // The pick is never strictly worse than any other
                // eligible schedule.
                for other in ScanAlgorithm::ALL {
                    if other == ScanAlgorithm::PipelinedChain && !(splittable && *p >= 2) {
                        continue;
                    }
                    let t_picked = picked.estimated_seconds(&cost, *p, bytes);
                    let t_other = other.estimated_seconds(&cost, *p, bytes);
                    if t_picked > t_other {
                        return Err(format!(
                            "{} (={t_picked}) beat by {} (={t_other}) at p={p} bytes={bytes}",
                            picked.name(),
                            other.name()
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn crossover_binomial_and_chain_beat_recursive_doubling_at_64kib_p8() {
    // The acceptance pin: for a 64 KiB state at p = 8 the α–β estimate
    // ranks chain < binomial < recursive doubling, and the selector-routed
    // public entries attribute the run accordingly.
    let cost = CostModel::cluster_2006();
    let bytes = 64 << 10;
    let rd = ScanAlgorithm::RecursiveDoubling.estimated_seconds(&cost, 8, bytes);
    let bin = ScanAlgorithm::Binomial.estimated_seconds(&cost, 8, bytes);
    let chain = ScanAlgorithm::PipelinedChain.estimated_seconds(&cost, 8, bytes);
    assert!(bin < rd, "estimate: binomial={bin} rd={rd}");
    assert!(chain < bin, "estimate: chain={chain} binomial={bin}");
    assert_eq!(
        ScanAlgorithm::select(&cost, 8, bytes, false),
        (ScanAlgorithm::Binomial, 1)
    );
    assert_eq!(
        ScanAlgorithm::select(&cost, 8, bytes, true),
        (
            ScanAlgorithm::PipelinedChain,
            ScanAlgorithm::chain_segments(&cost, 8, bytes)
        )
    );

    let add = |mut a: Vec<u64>, b: Vec<u64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    let wire = |v: &Vec<u64>| v.len() * 8;
    let unsplittable = Runtime::new(8).run(move |comm| {
        let state = vec![comm.rank() as u64; 8 << 10]; // 64 KiB of u64s
        comm.scan_both(state, wire, add);
    });
    assert_eq!(
        unsplittable
            .stats
            .scan_algorithm_calls(ScanAlgorithm::Binomial),
        8
    );
    let splittable = Runtime::new(8).run(move |comm| {
        let state = vec![comm.rank() as u64; 8 << 10];
        comm.scan_both_splittable(state, split_vec_segments, unsplit_vec_segments, wire, add);
    });
    assert_eq!(
        splittable
            .stats
            .scan_algorithm_calls(ScanAlgorithm::PipelinedChain),
        8
    );
    // The chain also moves strictly fewer bytes than recursive doubling
    // would: (p−1)·n against ≈(p·log p)·n.
    assert!(splittable.stats.bytes < unsplittable.stats.bytes);
}

#[test]
fn non_power_of_two_selector_matrix_picks_the_estimate_argmin() {
    // Satellite of the cost-model fix: at awkward rank counts (6, 12, 24)
    // every scan schedule must still match the sequential oracle, and the
    // selector-routed entry point must be attributed to the schedule whose
    // α–β estimate is minimal among the eligible ones. (Scan estimates
    // price aggregate traffic that the virtual clock does not serialize,
    // so the assertion is estimate-argmin, not a modeled-wall-clock bound.)
    let cost = CostModel::cluster_2006();
    let add = |mut a: Vec<i64>, b: Vec<i64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    let wire = |v: &Vec<i64>| v.len() * 8;
    for p in [6usize, 12, 24] {
        for bytes in [8usize, 4 << 10, 64 << 10, 256 << 10] {
            let elems = bytes / 8;
            let outcome = Runtime::new(p).run(move |comm| {
                let r = comm.rank() as i64;
                let mine: Vec<i64> = (0..elems as i64).map(|i| r + i).collect();
                let selector = comm.scan_both_splittable(
                    mine.clone(),
                    split_vec_segments,
                    unsplit_vec_segments,
                    wire,
                    add,
                );
                let rd =
                    comm.scan_both_by((RecursiveDoubling, 1), mine.clone(), whole(), wire, add);
                let bin = comm.scan_both_by((Binomial, 1), mine.clone(), whole(), wire, add);
                let chain = comm.scan_both_by(
                    (PipelinedChain, 4),
                    mine,
                    (split_vec_segments, unsplit_vec_segments),
                    wire,
                    add,
                );
                (selector, rd, bin, chain)
            });
            for (r, (selector, rd, bin, chain)) in outcome.results.into_iter().enumerate() {
                let expected_inc: Vec<i64> = (0..elems as i64)
                    .map(|i| (0..=r as i64).map(|q| q + i).sum())
                    .collect();
                let expected_ex: Vec<i64> = (0..elems as i64)
                    .map(|i| (0..r as i64).map(|q| q + i).sum())
                    .collect();
                let runs = [
                    ("selector", selector),
                    ("rd", rd),
                    ("bin", bin),
                    ("chain", chain),
                ];
                for (name, (ex, inc)) in runs {
                    assert_eq!(
                        inc, expected_inc,
                        "{name} inclusive p={p} bytes={bytes} r={r}"
                    );
                    if r == 0 {
                        assert_eq!(ex, None, "{name} rank 0 p={p} bytes={bytes}");
                    } else {
                        assert_eq!(
                            ex.as_ref(),
                            Some(&expected_ex),
                            "{name} exclusive p={p} bytes={bytes} r={r}"
                        );
                    }
                }
                // Avoid quadratic oracle cost at the largest cells: one
                // rank's worth of checking per (p, bytes) is plenty.
                if bytes >= 64 << 10 && r >= 1 {
                    break;
                }
            }
            // The selector-routed run (one call per rank beyond the three
            // explicit ones) went to the estimate-argmin schedule.
            let best = ScanAlgorithm::ALL
                .into_iter()
                .min_by(|a, b| {
                    a.estimated_seconds(&cost, p, bytes)
                        .total_cmp(&b.estimated_seconds(&cost, p, bytes))
                })
                .unwrap();
            let t_best = best.estimated_seconds(&cost, p, bytes);
            // Every schedule ran exactly once per rank explicitly; the
            // selector adds a second p calls to exactly one of them.
            for algo in ScanAlgorithm::ALL {
                let calls = outcome.stats.scan_algorithm_calls(algo);
                let t_algo = algo.estimated_seconds(&cost, p, bytes);
                if calls == 2 * p as u64 {
                    assert!(
                        t_algo <= t_best * (1.0 + 1e-9),
                        "selector picked {} ({t_algo}s) over {} ({t_best}s) at p={p} bytes={bytes}",
                        algo.name(),
                        best.name()
                    );
                } else {
                    assert_eq!(calls, p as u64, "{} p={p} bytes={bytes}", algo.name());
                }
            }
        }
    }
}

#[test]
fn default_call_shapes_stay_on_recursive_doubling() {
    // Guard for the recorded figures: every pre-existing call site uses
    // small non-splittable states (8-byte offsets and the like), which
    // the selector must keep on the shifted recursive-doubling schedule —
    // so FIG2/FIG3 and mpi_call_stats recordings cannot move.
    for p in [2usize, 4, 8, 16] {
        let outcome = Runtime::new(p).run(|comm| {
            let n = comm.rank() as u64;
            comm.scan_inclusive(n, |_| 8, |a, b| a + b);
            comm.scan_exclusive(n, || 0, |_| 8, |a, b| a + b);
        });
        assert_eq!(
            outcome
                .stats
                .scan_algorithm_calls(ScanAlgorithm::RecursiveDoubling),
            2 * p as u64,
            "p={p}"
        );
        assert_eq!(
            outcome.stats.scan_algorithm_calls(ScanAlgorithm::Binomial),
            0
        );
        assert_eq!(
            outcome
                .stats
                .scan_algorithm_calls(ScanAlgorithm::PipelinedChain),
            0
        );
    }

    // The NAS IS offset computation (an 8-byte exclusive scan through
    // localview::local_xscan) is attributed to the selector's
    // recursive-doubling pick on every rank.
    let keys_per_rank = 64usize;
    let outcome = Runtime::new(8).run(move |comm| {
        let keys: Vec<u32> = (0..keys_per_rank)
            .map(|i| ((comm.rank() * keys_per_rank + i) * 97 % 512) as u32)
            .collect();
        gv_nas::is::distributed_sort(comm, &keys, 512)
    });
    assert_eq!(outcome.stats.calls(CallKind::Exscan), 8);
    assert_eq!(
        outcome
            .stats
            .scan_algorithm_calls(ScanAlgorithm::RecursiveDoubling),
        8
    );
    // Offsets are consistent: sorted blocks tile the global array.
    let mut expect = 0u64;
    for block in outcome.results {
        assert_eq!(block.global_offset, expect);
        expect += block.keys.len() as u64;
    }
}

#[test]
fn nonblocking_scans_move_the_identical_traffic_as_blocking() {
    // Blocking scans are the same schedule implementations driven on
    // the stack, so `iscan_inclusive`/`iscan_exclusive` + wait must move
    // bit-identical message and byte totals — at small states (shifted
    // recursive doubling) and large ones (the binomial sweeps).
    let wire = |v: &Vec<i64>| v.len() * 8;
    let add = |mut a: Vec<i64>, b: Vec<i64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    for p in [2usize, 5, 16] {
        for bytes in [8usize, 64 << 10] {
            let run = |nonblocking: bool| {
                Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank() as i64 + 1; bytes / 8];
                    if nonblocking {
                        let mut inc = comm.iscan_inclusive(state.clone(), wire, add);
                        let mut exc = comm.iscan_exclusive(state, Vec::new, wire, add);
                        (
                            inc.wait().expect("transport alive"),
                            exc.wait().expect("transport alive"),
                        )
                    } else {
                        (
                            comm.scan_inclusive(state.clone(), wire, add),
                            comm.scan_exclusive(state, Vec::new, wire, add),
                        )
                    }
                })
            };
            let blocking = run(false);
            let requests = run(true);
            assert_eq!(
                blocking.results, requests.results,
                "results, p={p} bytes={bytes}"
            );
            assert_eq!(
                blocking.stats.messages, requests.stats.messages,
                "messages, p={p} bytes={bytes}"
            );
            assert_eq!(
                blocking.stats.bytes, requests.stats.bytes,
                "bytes, p={p} bytes={bytes}"
            );
            for algo in ScanAlgorithm::ALL {
                assert_eq!(
                    blocking.stats.scan_algorithm_calls(algo),
                    requests.stats.scan_algorithm_calls(algo),
                    "algorithm counter {algo:?}, p={p} bytes={bytes}"
                );
            }
        }
    }
}
