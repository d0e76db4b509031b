//! Property tests of the three allreduce schedules and the cost-driven
//! selector, on the in-tree `gv-testkit` runner.
//!
//! The contract under test: reduce+bcast, recursive doubling, and
//! reduce-scatter+allgather all compute the same rank-order reduction as
//! a sequential fold — for every rank count in 1..17 (covering both
//! powers of two and the fold/unfold edge cases), for commutative and
//! non-commutative operators, and for splittable and scalar states —
//! and the selector never picks an ineligible schedule.
//!
//! Every failure message prints a case seed; rerun just that input with
//! `GV_TESTKIT_SEED=<seed> cargo test <test name>`.

use gv_testkit::prop::{check, i64s, usizes, vec_of, Config};
use gv_testkit::prop_assert_eq;

use gv_core::ops::histogram::Histogram;
use gv_core::ops::topk::TopBottomK;
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_executor::chunk_ranges;
use gv_msgpass::collectives::tree::whole;
use gv_msgpass::AllreduceAlgorithm::{RecursiveDoubling, ReduceBroadcast, ReduceScatterAllgather};
use gv_msgpass::{AllreduceAlgorithm, CostModel, Runtime};

fn cfg() -> Config {
    Config::new(128)
}

#[test]
fn scalar_schedules_agree_with_fold_oracle() {
    check(
        "scalar_schedules_agree_with_fold_oracle",
        &cfg(),
        &(vec_of(i64s(-1000..1000), 1..17), usizes(1..17)),
        |(values, p)| {
            let p = *p;
            let per_rank: Vec<i64> = (0..p)
                .map(|r| values.get(r % values.len()).copied().unwrap_or(0))
                .collect();
            let expected: i64 = per_rank.iter().sum();
            let outcome = Runtime::new(p).run(|comm| {
                let mine = per_rank[comm.rank()];
                let selector = comm.allreduce(mine, true, |_| 8, |a, b| a + b);
                let rb =
                    comm.allreduce_by((ReduceBroadcast, 1), mine, whole(), |_| 8, |a, b| a + b);
                let rd =
                    comm.allreduce_by((RecursiveDoubling, 1), mine, whole(), |_| 8, |a, b| a + b);
                (selector, rb, rd)
            });
            for (selector, rb, rd) in outcome.results {
                prop_assert_eq!(selector, expected);
                prop_assert_eq!(rb, expected);
                prop_assert_eq!(rd, expected);
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
            let expected: String = (0..p).map(|r| format!("[{r}]")).collect();
            let outcome = Runtime::new(p).run(|comm| {
                let mine = format!("[{}]", comm.rank());
                let concat = |a: String, b: String| a + &b;
                let wire = |s: &String| s.len();
                let selector = comm.allreduce(mine.clone(), false, wire, concat);
                let rb =
                    comm.allreduce_by((ReduceBroadcast, 1), mine.clone(), whole(), wire, concat);
                let rd = comm.allreduce_by((RecursiveDoubling, 1), mine, whole(), wire, concat);
                (selector, rb, rd)
            });
            for (selector, rb, rd) in outcome.results {
                prop_assert_eq!(&selector, &expected);
                prop_assert_eq!(&rb, &expected);
                prop_assert_eq!(&rd, &expected);
            }
            Ok(())
        },
    );
}

#[test]
fn splittable_schedules_agree_on_vector_states() {
    // Vector lengths 0..40 over p in 1..17 cover len < p (empty
    // segments), len == p, and len > p, plus the empty state.
    check(
        "splittable_schedules_agree_on_vector_states",
        &cfg(),
        &(vec_of(i64s(-500..500), 0..40), usizes(1..17)),
        |(data, p)| {
            let p = *p;
            let len = data.len();
            let expected: Vec<i64> = (0..len)
                .map(|i| (0..p as i64).map(|r| data[i] + r).sum())
                .collect();
            let outcome = Runtime::new(p).run(|comm| {
                let r = comm.rank() as i64;
                let mine: Vec<i64> = data.iter().map(|&x| x + r).collect();
                let wire = |v: &Vec<i64>| v.len() * 8;
                let add = |mut a: Vec<i64>, b: Vec<i64>| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                };
                let selected = comm.allreduce_splittable(
                    mine.clone(),
                    true,
                    split_vec_segments,
                    unsplit_vec_segments,
                    wire,
                    add,
                );
                let rsag = comm.allreduce_by(
                    (ReduceScatterAllgather, 1),
                    mine.clone(),
                    (split_vec_segments, unsplit_vec_segments),
                    wire,
                    add,
                );
                let rd = comm.allreduce_by((RecursiveDoubling, 1), mine, whole(), wire, add);
                (selected, rsag, rd)
            });
            for (selected, rsag, rd) in outcome.results {
                prop_assert_eq!(&selected, &expected);
                prop_assert_eq!(&rsag, &expected);
                prop_assert_eq!(&rd, &expected);
            }
            Ok(())
        },
    );
}

#[test]
fn splittable_global_view_reductions_match_sequential_oracle() {
    check(
        "splittable_global_view_reductions_match_sequential_oracle",
        &cfg(),
        &(vec_of(i64s(0..1000), 0..120), usizes(1..17)),
        |(raw, p)| {
            let p = *p;
            // Histogram over f64 samples through reduce_all_splittable.
            let samples: Vec<f64> = raw.iter().map(|&x| x as f64 / 10.0).collect();
            let hist = Histogram::uniform(0.0, 100.0, 16);
            let expected_hist = gv_core::seq::reduce(&hist, &samples);
            let chunks: Vec<Vec<f64>> = chunk_ranges(samples.len(), p)
                .map(|range| samples[range].to_vec())
                .collect();
            let outcome = Runtime::new(p).run(|comm| {
                gv_rsmpi::reduce_all_splittable(
                    comm,
                    &Histogram::uniform(0.0, 100.0, 16),
                    &chunks[comm.rank()],
                )
            });
            for got in outcome.results {
                prop_assert_eq!(&got, &expected_hist);
            }

            // TopBottomK over (value, index) pairs through the iterator
            // entry point.
            let pairs: Vec<(f64, u64)> = samples
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u64))
                .collect();
            let op = TopBottomK::<f64, u64>::new(5);
            let expected_topk = gv_core::seq::reduce(&op, &pairs);
            let pair_chunks: Vec<Vec<(f64, u64)>> = chunk_ranges(pairs.len(), p)
                .map(|range| pairs[range].to_vec())
                .collect();
            let outcome = Runtime::new(p).run(|comm| {
                gv_rsmpi::reduce_all_from_iter(
                    comm,
                    &TopBottomK::<f64, u64>::new(5),
                    pair_chunks[comm.rank()].iter().copied(),
                )
            });
            for got in outcome.results {
                prop_assert_eq!(&got, &expected_topk);
            }
            Ok(())
        },
    );
}

#[test]
fn a_located_reduction_is_the_streamed_one_on_the_wire_for_p_1_through_17() {
    use gv_core::ops::minloc::mini;
    use gv_msgpass::CallKind;

    let mut rng = gv_testkit::rng::TestRng::new(27);
    // Few distinct values, so the lists and the minimum tie across ranks.
    let values: Vec<f64> = (0..3000).map(|_| rng.i64_in(-50..50) as f64).collect();
    let pairs: Vec<(f64, u64)> = values.iter().copied().zip(0..).collect();
    let op = TopBottomK::<f64, u64>::new(10);
    let expected = (
        gv_core::seq::reduce(&op, &pairs),
        gv_core::seq::reduce(&mini(), &pairs),
    );
    for p in 1..=17usize {
        let ranges: Vec<_> = chunk_ranges(values.len(), p).collect();
        let run = |located: bool| {
            Runtime::new(p).run(|comm| {
                let range = ranges[comm.rank()].clone();
                if located {
                    let first = range.start as u64;
                    let local = &values[range];
                    let topk = gv_rsmpi::reduce_all_located(comm, &op, local, first);
                    (
                        topk,
                        gv_rsmpi::reduce_all_located(comm, &mini(), local, first),
                    )
                } else {
                    let local = &pairs[range];
                    let topk = gv_rsmpi::reduce_all_from_iter(comm, &op, local.iter().copied());
                    (
                        topk,
                        gv_rsmpi::reduce_all_from_iter(comm, &mini(), local.iter().copied()),
                    )
                }
            })
        };
        let (located, streamed) = (run(true), run(false));
        for got in &located.results {
            assert_eq!(got, &expected, "p={p}");
        }
        assert_eq!(located.results, streamed.results, "p={p}");
        for algo in AllreduceAlgorithm::ALL {
            assert_eq!(
                located.stats.allreduce_algorithm_calls(algo),
                streamed.stats.allreduce_algorithm_calls(algo),
                "{algo:?} calls, p={p}"
            );
        }
        assert_eq!(
            located.stats.calls(CallKind::Allreduce),
            streamed.stats.calls(CallKind::Allreduce),
            "p={p}"
        );
        assert_eq!(
            located.stats.messages, streamed.stats.messages,
            "messages, p={p}"
        );
        assert_eq!(located.stats.bytes, streamed.stats.bytes, "bytes, p={p}");
        let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&located.rank_clocks),
            bits(&streamed.rank_clocks),
            "modeled clocks, p={p}"
        );
    }
}

#[test]
fn selector_only_picks_eligible_schedules() {
    check(
        "selector_only_picks_eligible_schedules",
        &cfg(),
        &(usizes(1..64), usizes(0..21)),
        |(p, log_bytes)| {
            let cost = CostModel::cluster_2006();
            let bytes = 1usize << *log_bytes;
            for commutative in [true, false] {
                for splittable in [true, false] {
                    let (picked, _) =
                        AllreduceAlgorithm::select(&cost, *p, bytes, commutative, splittable);
                    if picked == AllreduceAlgorithm::ReduceScatterAllgather
                        && !(commutative && splittable)
                    {
                        return Err(format!(
                            "rs+ag selected for commutative={commutative} \
                             splittable={splittable} p={p} bytes={bytes}"
                        ));
                    }
                    if picked == AllreduceAlgorithm::PipelinedTree && !splittable {
                        return Err(format!(
                            "segmented tree selected for non-splittable \
                             state p={p} bytes={bytes}"
                        ));
                    }
                    // The pick is never strictly worse than any other
                    // eligible schedule.
                    for other in AllreduceAlgorithm::ALL {
                        if other == AllreduceAlgorithm::ReduceScatterAllgather
                            && !(commutative && splittable)
                        {
                            continue;
                        }
                        if other == AllreduceAlgorithm::PipelinedTree && !splittable {
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
            }
            Ok(())
        },
    );
}

#[test]
fn crossover_ring_beats_reduce_bcast_at_64kib_p8() {
    // The acceptance pin: both in the α–β estimate and in the measured
    // virtual clock, reduce-scatter+allgather wins for a 64 KiB
    // splittable state at p = 8.
    let cost = CostModel::cluster_2006();
    let rsag = AllreduceAlgorithm::ReduceScatterAllgather.estimated_seconds(&cost, 8, 64 << 10);
    let rb = AllreduceAlgorithm::ReduceBroadcast.estimated_seconds(&cost, 8, 64 << 10);
    assert!(rsag < rb, "estimate: rsag={rsag} rb={rb}");

    let measured = |algo: AllreduceAlgorithm| {
        Runtime::new(8)
            .run(move |comm| {
                let state = vec![1u64; 8 << 10]; // 64 KiB of u64s
                let wire = |v: &Vec<u64>| v.len() * 8;
                let add = |mut a: Vec<u64>, b: Vec<u64>| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                };
                let segmentation = (split_vec_segments, unsplit_vec_segments);
                comm.allreduce_by((algo, 1), state, segmentation, wire, add);
            })
            .modeled_seconds
    };
    let t_rsag = measured(ReduceScatterAllgather);
    let t_rb = measured(ReduceBroadcast);
    assert!(t_rsag < t_rb, "measured: rsag={t_rsag} reduce+bcast={t_rb}");
}

#[test]
fn non_power_of_two_selector_matrix_stays_within_5pct_of_best() {
    // The Issue-7 acceptance matrix: at p = 6, 12, 24 (where the old
    // ring reduce-scatter and the mean-segment pricing degraded) every
    // schedule still matches the oracle, and the selector's pick never
    // loses more than 5% modeled time to the best fixed schedule.
    let wire = |v: &Vec<u64>| v.len() * 8;
    let add = |mut a: Vec<u64>, b: Vec<u64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    for p in [6usize, 12, 24] {
        for bytes in [8usize, 4 << 10, 64 << 10, 256 << 10] {
            let elems = bytes / 8;
            let expected: Vec<u64> = (0..elems as u64)
                .map(|i| (0..p as u64).map(|r| r + i).sum())
                .collect();
            // schedule 0 = cost-driven selector, 1..=3 fixed schedules.
            let modeled: Vec<f64> = (0..4usize)
                .map(|which| {
                    let outcome = Runtime::new(p).run(move |comm| {
                        let r = comm.rank() as u64;
                        let state: Vec<u64> = (0..elems as u64).map(|i| r + i).collect();
                        let (split, unsplit) = (split_vec_segments, unsplit_vec_segments);
                        match which {
                            0 => comm.allreduce_splittable(state, true, split, unsplit, wire, add),
                            1 => comm.allreduce_by((ReduceBroadcast, 1), state, whole(), wire, add),
                            2 => {
                                comm.allreduce_by((RecursiveDoubling, 1), state, whole(), wire, add)
                            }
                            _ => comm.allreduce_by(
                                (ReduceScatterAllgather, 1),
                                state,
                                (split, unsplit),
                                wire,
                                add,
                            ),
                        }
                    });
                    for got in &outcome.results {
                        assert_eq!(got, &expected, "which={which} p={p} bytes={bytes}");
                    }
                    outcome.modeled_seconds
                })
                .collect();
            let best_fixed = modeled[1..].iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                modeled[0] <= 1.05 * best_fixed,
                "selector pick loses >5% at p={p} bytes={bytes}: \
                 selector={} best fixed={best_fixed} (all: {modeled:?})",
                modeled[0]
            );
        }
    }
}

#[test]
fn nonblocking_allreduce_moves_the_identical_traffic_as_blocking() {
    // The refactor's invariant: blocking allreduce is `iallreduce` +
    // wait over the *same* schedule implementation, so the two variants
    // must move bit-identical message and byte totals for every
    // schedule the selector can route to (reduce+bcast at small states,
    // recursive doubling in the middle, reduce-scatter+allgather via
    // the splittable path at the large end).
    let wire = |v: &Vec<u64>| v.len() * 8;
    let add = |mut a: Vec<u64>, b: Vec<u64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    for p in [2usize, 3, 8, 16] {
        for bytes in [8usize, 64 << 10] {
            let run = |nonblocking: bool| {
                Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank() as u64; bytes / 8];
                    if nonblocking {
                        let mut req = comm.iallreduce(state, true, wire, add);
                        req.wait().expect("transport alive")
                    } else {
                        comm.allreduce(state, true, wire, add)
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
            for algo in AllreduceAlgorithm::ALL {
                assert_eq!(
                    blocking.stats.allreduce_algorithm_calls(algo),
                    requests.stats.allreduce_algorithm_calls(algo),
                    "algorithm counter {algo:?}, p={p} bytes={bytes}"
                );
            }

            let run_splittable = |nonblocking: bool| {
                Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank() as u64; bytes / 8];
                    if nonblocking {
                        let mut req = comm.iallreduce_splittable(
                            state,
                            true,
                            split_vec_segments,
                            unsplit_vec_segments,
                            wire,
                            add,
                        );
                        req.wait().expect("transport alive")
                    } else {
                        comm.allreduce_splittable(
                            state,
                            true,
                            split_vec_segments,
                            unsplit_vec_segments,
                            wire,
                            add,
                        )
                    }
                })
            };
            let blocking = run_splittable(false);
            let requests = run_splittable(true);
            assert_eq!(
                blocking.results, requests.results,
                "splittable results, p={p} bytes={bytes}"
            );
            assert_eq!(
                blocking.stats.messages, requests.stats.messages,
                "splittable messages, p={p} bytes={bytes}"
            );
            assert_eq!(
                blocking.stats.bytes, requests.stats.bytes,
                "splittable bytes, p={p} bytes={bytes}"
            );
        }
    }
}
