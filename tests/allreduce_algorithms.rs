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

use gv_core::iter::{Located, Staged};
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
                let rb = comm.allreduce_by(ReduceBroadcast, mine, whole(), |_| 8, |a, b| a + b);
                let rd = comm.allreduce_by(RecursiveDoubling, mine, whole(), |_| 8, |a, b| a + b);
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
                let rb = comm.allreduce_by(ReduceBroadcast, mine.clone(), whole(), wire, concat);
                let rd = comm.allreduce_by(RecursiveDoubling, mine, whole(), wire, concat);
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
                    ReduceScatterAllgather,
                    mine.clone(),
                    (split_vec_segments, unsplit_vec_segments),
                    wire,
                    add,
                );
                let rd = comm.allreduce_by(RecursiveDoubling, mine, whole(), wire, add);
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

            // TopBottomK over (value, index) pairs, streamed.
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
                gv_rsmpi::reduce_all(
                    comm,
                    &TopBottomK::<f64, u64>::new(5),
                    Staged(pair_chunks[comm.rank()].iter().copied()),
                )
            });
            for got in outcome.results {
                prop_assert_eq!(&got, &expected_topk);
            }
            Ok(())
        },
    );
}

/// How a rank passes its block: one of the three implementations of
/// `gv_core::iter::Input`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Slice,
    Staged,
    Located,
}

#[test]
fn a_located_reduction_is_the_streamed_one_on_the_wire_for_p_1_through_17() {
    use gv_core::kernel::{dispatch_counts, BLOCK};
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
    // The same `(TopBottomK, mini)` pair of reductions over each form.
    let both = |comm: &gv_msgpass::Comm, form: Form, range: std::ops::Range<usize>| {
        let (first, local, pairs) = (range.start as u64, &values[range.clone()], &pairs[range]);
        match form {
            Form::Slice => (
                gv_rsmpi::reduce_all(comm, &op, pairs),
                gv_rsmpi::reduce_all(comm, &mini(), pairs),
            ),
            Form::Staged => (
                gv_rsmpi::reduce_all(comm, &op, Staged(pairs.iter().copied())),
                gv_rsmpi::reduce_all(comm, &mini(), Staged(pairs.iter().copied())),
            ),
            Form::Located => (
                gv_rsmpi::reduce_all(comm, &op, Located::new(local, first)),
                gv_rsmpi::reduce_all(comm, &mini(), Located::new(local, first)),
            ),
        }
    };
    for p in 1..=17usize {
        let ranges: Vec<_> = chunk_ranges(values.len(), p).collect();
        let run = |form| Runtime::new(p).run(|comm| both(comm, form, ranges[comm.rank()].clone()));
        let sliced = run(Form::Slice);
        for got in &sliced.results {
            assert_eq!(got, &expected, "p={p}");
        }
        for form in [Form::Staged, Form::Located] {
            let other = run(form);
            assert_eq!(other.results, sliced.results, "{form:?}, p={p}");
            for algo in AllreduceAlgorithm::ALL {
                assert_eq!(
                    other.stats.allreduce_algorithm_calls(algo),
                    sliced.stats.allreduce_algorithm_calls(algo),
                    "{algo:?} calls, {form:?}, p={p}"
                );
            }
            assert_eq!(
                other.stats.calls(CallKind::Allreduce),
                sliced.stats.calls(CallKind::Allreduce),
                "{form:?}, p={p}"
            );
            assert_eq!(
                other.stats.messages, sliced.stats.messages,
                "messages, {form:?}, p={p}"
            );
            assert_eq!(
                other.stats.bytes, sliced.stats.bytes,
                "bytes, {form:?}, p={p}"
            );
            let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&other.rank_clocks),
                bits(&sliced.rank_clocks),
                "modeled clocks, {form:?}, p={p}"
            );
        }
    }

    // Blocks noted, kernel and scalar together: a slice is one a call, a
    // stream and a located run one a `BLOCK` window — so a loop that cut
    // slices into windows would move the benchmark's `core.kernel.blocks_*`.
    // The counters are process-wide and other tests tick them too: the
    // quietest of many attempts is the call's own count.
    let blocks = |form| {
        (0..200)
            .map(|_| {
                let (kernel, scalar) = dispatch_counts();
                Runtime::new(1).run(|comm| both(comm, form, 0..values.len()));
                let (kernel_after, scalar_after) = dispatch_counts();
                kernel_after - kernel + scalar_after - scalar
            })
            .min()
            .unwrap()
    };
    let windows = values.len().div_ceil(BLOCK) as u64;
    assert_eq!(windows, 3);
    assert_eq!(blocks(Form::Slice), 2, "one block a call");
    assert_eq!(blocks(Form::Staged), 2 * windows, "one block a window");
    assert_eq!(blocks(Form::Located), 2 * windows, "one block a window");
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
                    let picked =
                        AllreduceAlgorithm::select(&cost, *p, bytes, commutative, splittable);
                    if picked == AllreduceAlgorithm::ReduceScatterAllgather
                        && !(commutative && splittable)
                    {
                        return Err(format!(
                            "rs+ag selected for commutative={commutative} \
                             splittable={splittable} p={p} bytes={bytes}"
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
                comm.allreduce_by(algo, state, segmentation, wire, add);
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
                            1 => comm.allreduce_by(ReduceBroadcast, state, whole(), wire, add),
                            2 => comm.allreduce_by(RecursiveDoubling, state, whole(), wire, add),
                            _ => comm.allreduce_by(
                                ReduceScatterAllgather,
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
fn a_request_runs_the_rotating_tree_when_commutative_and_the_blocking_schedule_otherwise() {
    // A blocking allreduce is priced by its critical path, a request by
    // the work it leaves on each rank: a commutative request runs the
    // tree rooted at its call sequence mod p, one rank included, and a
    // non-commutative one the blocking call's schedule.
    let wire = |v: &Vec<u64>| v.len() * 8;
    let add = |mut a: Vec<u64>, b: Vec<u64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    for p in [1usize, 2, 3, 8, 16] {
        for bytes in [8usize, 64 << 10] {
            let run = |commutative: bool, nonblocking: bool| {
                Runtime::new(p).run(move |comm| {
                    let state = vec![comm.rank() as u64 * 0x1_0001 + 7; bytes / 8];
                    if nonblocking {
                        let mut req = comm.iallreduce(state, commutative, wire, add);
                        req.wait().expect("transport alive")
                    } else {
                        comm.allreduce(state, commutative, wire, add)
                    }
                })
            };
            // Commutative: the blocking call's result bit for bit, two
            // tree edges a rank but the root, the tree's counter.
            let blocking = run(true, false);
            let requests = run(true, true);
            assert_eq!(
                blocking.results, requests.results,
                "results, p={p} bytes={bytes}"
            );
            let edges = 2 * (p as u64 - 1);
            assert_eq!(
                requests.stats.messages, edges,
                "messages, p={p} bytes={bytes}"
            );
            assert_eq!(
                requests.stats.bytes,
                edges * bytes as u64,
                "bytes, p={p} bytes={bytes}"
            );
            for algo in AllreduceAlgorithm::ALL {
                let expect = if algo == ReduceBroadcast { p as u64 } else { 0 };
                assert_eq!(
                    requests.stats.allreduce_algorithm_calls(algo),
                    expect,
                    "algorithm counter {algo:?}, p={p} bytes={bytes}"
                );
            }
            // Non-commutative: exactly the blocking call's traffic.
            let blocking = run(false, false);
            let requests = run(false, true);
            assert_eq!(blocking.results, requests.results, "p={p} bytes={bytes}");
            assert_eq!(blocking.stats.messages, requests.stats.messages);
            assert_eq!(blocking.stats.bytes, requests.stats.bytes);
            for algo in AllreduceAlgorithm::ALL {
                assert_eq!(
                    blocking.stats.allreduce_algorithm_calls(algo),
                    requests.stats.allreduce_algorithm_calls(algo),
                    "algorithm counter {algo:?}, p={p} bytes={bytes}"
                );
            }
        }
    }
    // The root is the call sequence mod p. A concatenation declared
    // commutative shows it: the tree combines in rank order rotated to
    // start at its root, so request `i` of a fresh communicator yields
    // the ranks from `i mod p` round.
    for p in [2usize, 3, 5, 8] {
        let outcome = Runtime::new(p).run(move |comm| {
            let mut requests: Vec<_> = (0..2 * p)
                .map(|_| {
                    let mine = format!("<{}>", comm.rank());
                    comm.iallreduce(mine, true, |s: &String| s.len(), |a, b| a + &b)
                })
                .collect();
            gv_msgpass::wait_all(&mut requests).expect("transport alive")
        });
        let rotated =
            |root: usize| -> String { (0..p).map(|i| format!("<{}>", (root + i) % p)).collect() };
        let expect: Vec<String> = (0..2 * p).map(|seq| rotated(seq % p)).collect();
        assert_eq!(outcome.results, vec![expect; p], "p={p}");
    }
}

/// The agreement law for allreduce: every rank runs the same schedule
/// for one call, whatever its local state's size. Counters are reported
/// summed over the ranks and a rank records one schedule a call, so one
/// call's counters name a single schedule, at `p`, exactly when every
/// rank recorded that schedule. Returns the schedules the call recorded,
/// with their counts, after checking the result against the sequential
/// fold of every rank's input. `call` is the entry point under test.
fn schedules_of_one_call<Op>(
    p: usize,
    op: Op,
    input: impl Fn(usize) -> Vec<Op::In> + Copy + Send + Sync,
    call: fn(&gv_msgpass::Comm, Op, &[Op::In]) -> Op::Out,
) -> Vec<(AllreduceAlgorithm, u64)>
where
    Op: gv_core::op::ReduceScanOp + Copy + Send + Sync + 'static,
    Op::In: Send + Sync,
    Op::State: Clone + Send + 'static,
    Op::Out: Clone + PartialEq + std::fmt::Debug + Send,
{
    let outcome = Runtime::new(p).run(move |comm| call(comm, op, &input(comm.rank())));
    let all: Vec<Op::In> = (0..p).flat_map(input).collect();
    let expected = gv_core::seq::reduce(&op, &all);
    assert_eq!(outcome.results, vec![expected; p], "p={p}");
    AllreduceAlgorithm::ALL
        .iter()
        .map(|&algo| (algo, outcome.stats.allreduce_algorithm_calls(algo)))
        .filter(|&(_, calls)| calls > 0)
        .collect()
}

const AGREEMENT_K: usize = 4;

/// Rank 0 holds nothing, rank 1 holds 3k values and every other rank r
/// holds r: states of three different wire sizes for `TopBottomK`.
fn uneven_values(r: usize, k: usize) -> Vec<i64> {
    let held = match r {
        0 => 0,
        1 => 3 * k,
        r => r,
    };
    (0..held)
        .map(|i| ((r * 31 + i * 17) % 23) as i64 - 11)
        .collect()
}

fn uneven_pairs(r: usize, k: usize) -> Vec<(i64, u64)> {
    uneven_values(r, k)
        .into_iter()
        .zip((r as u64) << 16..)
        .collect()
}

#[test]
fn ranks_agree_on_the_schedule_when_one_is_empty_and_one_holds_more_than_k() {
    use gv_core::ops::mink::MinK;
    use gv_msgpass::Comm;

    type TopK = TopBottomK<i64, u64>;
    fn reduce_all<Op: gv_core::op::ReduceScanOp>(comm: &Comm, op: Op, local: &[Op::In]) -> Op::Out
    where
        Op::State: Clone + Send + 'static,
    {
        gv_rsmpi::reduce_all(comm, &op, local)
    }
    fn ireduce_all<Op: gv_core::op::ReduceScanOp + 'static>(
        comm: &Comm,
        op: Op,
        local: &[Op::In],
    ) -> Op::Out
    where
        Op::State: Clone + Send + 'static,
    {
        let mut request = gv_rsmpi::ireduce_all(comm, op, local);
        request.wait().expect("transport alive")
    }
    fn splittable(
        comm: &Comm,
        op: TopK,
        local: &[(i64, u64)],
    ) -> gv_core::ops::TopBottom<i64, u64> {
        gv_rsmpi::reduce_all_splittable(comm, &op, local)
    }

    for p in 2..=9usize {
        let k = AGREEMENT_K;
        let values = move |r| uneven_values(r, k);
        let pairs = move |r| uneven_pairs(r, k);
        let (mink, topk) = (MinK::<i64>::new(k), TopK::new(k));
        // k = 1000 through the splittable reduction: rank 1's full state
        // prices past the selector's crossover at p ≥ 4, rank 0's empty
        // one does not.
        let wide = move |r| uneven_pairs(r, 1000);
        let calls = [
            ("MinK", schedules_of_one_call(p, mink, values, reduce_all)),
            (
                "MinK request",
                schedules_of_one_call(p, mink, values, ireduce_all),
            ),
            (
                "TopBottomK",
                schedules_of_one_call(p, topk, pairs, reduce_all),
            ),
            (
                "TopBottomK request",
                schedules_of_one_call(p, topk, pairs, ireduce_all),
            ),
            (
                "TopBottomK splittable",
                schedules_of_one_call(p, topk, pairs, splittable),
            ),
            (
                "TopBottomK k=1000 splittable",
                schedules_of_one_call(p, TopK::new(1000), wide, splittable),
            ),
        ];
        for (name, schedules) in calls {
            assert!(
                matches!(schedules[..], [(_, calls)] if calls == p as u64),
                "{name} p={p}: {schedules:?}"
            );
        }
    }
}

#[test]
fn ranks_agree_on_the_scan_schedule_when_one_is_empty_and_one_holds_more_than_k() {
    // The scans' sibling of the agreement law above: both global-view
    // scans price the operator's identity, so a `TopBottomK` scan whose
    // rank 0 holds nothing and whose rank 1 holds 3k pairs runs one
    // schedule on every rank. Priced at each rank's own state, k = 1000
    // split the ranks over two schedules at p = 4 and 8 and the run
    // stalled.
    use gv_core::op::ScanKind;
    use gv_msgpass::ScanAlgorithm;

    type TopK = TopBottomK<i64, u64>;
    for p in [4usize, 8] {
        for k in [AGREEMENT_K, 1000] {
            let op = TopK::new(k);
            let pairs = move |r| uneven_pairs(r, k);
            let all: Vec<(i64, u64)> = (0..p).flat_map(pairs).collect();
            let expected = gv_core::seq::scan(&op, &all, ScanKind::Exclusive);
            for splittable in [false, true] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let local = pairs(comm.rank());
                    if splittable {
                        gv_rsmpi::scan::scan_splittable(comm, &op, &local, ScanKind::Exclusive)
                    } else {
                        gv_rsmpi::scan(comm, &op, &local, ScanKind::Exclusive)
                    }
                });
                let name = if splittable {
                    "scan_splittable"
                } else {
                    "scan"
                };
                let got: Vec<_> = outcome.results.into_iter().flatten().collect();
                assert!(got == expected, "{name} k={k} p={p}: wrong prefixes");
                let schedules: Vec<_> = ScanAlgorithm::ALL
                    .iter()
                    .map(|&algo| (algo, outcome.stats.scan_algorithm_calls(algo)))
                    .filter(|&(_, calls)| calls > 0)
                    .collect();
                assert!(
                    matches!(schedules[..], [(_, calls)] if calls == p as u64),
                    "{name} k={k} p={p}: {schedules:?}"
                );
            }
        }
    }
}
