//! Aggregated global-view reductions and scans (paper §2.1 applied to the
//! global-view layer): `m` independent reductions computed at once, with
//! all `m` states shipped in a single message per tree edge.
//!
//! A rank may hold no rows, like an empty block in every other engine. It
//! cannot know the row width, so its aggregate state is the empty slot
//! vector, which stands for the identity at any width: combining it with
//! a state returns that state. (The selectors price a call by the local
//! state's bytes — `collectives/select.rs` — so ranks with and without
//! rows agree on the scan's schedule only while the aggregate is below
//! the selector's first crossover; the whole-state allreduce has none.)

use gv_core::agg::accumulate_rows;
use gv_core::op::{ReduceScanOp, ScanKind};
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_msgpass::Comm;

/// Accumulates this rank's rows into one state per slot and charges the
/// modeled compute.
fn accumulate_rows_local<Op: ReduceScanOp>(
    comm: &Comm,
    op: &Op,
    rows: &[&[Op::In]],
) -> Vec<Op::State> {
    let width = rows.first().map_or(0, |r| r.len());
    let mut states: Vec<Op::State> = (0..width).map(|_| op.ident()).collect();
    accumulate_rows(op, &mut states, rows);
    comm.advance((rows.len() * width) as u64 * op.accum_ops());
    states
}

/// Wire size of an aggregate state. One without slots reports one byte,
/// not none: at zero bytes every scan schedule is priced at its round
/// count times α, and the selector breaks the tie (p = 3: recursive
/// doubling and the chain, two rounds each) by list order, where any
/// state of a byte or more picks the chain — a rank without rows would
/// run a different schedule from its neighbours. (Priced here and not in
/// the selector for a measured reason: EXPERIMENTS.md, TXT-OUTPUT.)
#[allow(clippy::ptr_arg)] // passed where Fn(&Vec<State>) -> usize is expected
fn states_bytes<Op: ReduceScanOp>(op: &Op, states: &Vec<Op::State>) -> usize {
    states.iter().map(|s| op.wire_size(s)).sum::<usize>().max(1)
}

fn combine_states<'a, Op: ReduceScanOp>(
    comm: &'a Comm,
    op: &'a Op,
) -> impl FnMut(Vec<Op::State>, Vec<Op::State>) -> Vec<Op::State> + 'a {
    move |mut earlier, later| {
        // A rank without rows: the identity, free on the modeled clock.
        if later.is_empty() {
            return earlier;
        }
        if earlier.is_empty() {
            return later;
        }
        assert_eq!(
            earlier.len(),
            later.len(),
            "aggregated reduction requires the same row width on every rank"
        );
        // Charge the modeled compute for every slot up front (the same
        // total the per-slot loop charged), then let the operator combine
        // the whole slot vector at once — the elementwise block kernel for
        // built-ins, the per-slot `combine` loop otherwise.
        let modeled: u64 = later.iter().map(|b| op.combine_ops(b)).sum();
        comm.advance(modeled);
        op.combine_slots(&mut earlier, later);
        earlier
    }
}

/// Element-wise aggregated global-view reduction: slot `j` of the result is
/// the reduction of slot `j` across all rows of all ranks (rows ordered by
/// rank, then by local row index). Result on every rank.
pub fn reduce_all_elementwise<Op>(comm: &Comm, op: &Op, rows: &[&[Op::In]]) -> Vec<Op::Out>
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let states = accumulate_rows_local(comm, op, rows);
    // Slot-wise combining inherits the operator's commutativity.
    let combined = comm.allreduce(
        states,
        Op::COMMUTATIVE,
        |s| states_bytes(op, s),
        combine_states(comm, op),
    );
    combined.into_iter().map(|s| op.red_gen(s)).collect()
}

/// Element-wise aggregated global-view scan: output row `i`, slot `j` is
/// the scan of slot `j` over all earlier rows (earlier ranks' rows
/// included). Each rank receives outputs for its own rows.
///
/// The aggregate state is a `Vec` of per-slot states combined slot-wise,
/// so contiguous slot ranges combine independently — every aggregated
/// scan is splittable regardless of the operator, and the cross-rank
/// prefix goes through the splittable selector entry (eligible for the
/// pipelined chain schedule when the aggregate is wide).
pub fn scan_elementwise<Op>(
    comm: &Comm,
    op: &Op,
    rows: &[&[Op::In]],
    kind: ScanKind,
) -> Vec<Vec<Op::Out>>
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let width = rows.first().map_or(0, |r| r.len());
    let states = accumulate_rows_local(comm, op, rows);
    let mut running = comm.scan_exclusive_splittable(
        states,
        || (0..width).map(|_| op.ident()).collect(),
        split_vec_segments,
        unsplit_vec_segments,
        |s| states_bytes(op, s),
        combine_states(comm, op),
    );
    if running.is_empty() {
        // Every earlier rank was empty (and sent the identity it could not
        // size): the prefix of this rank's rows is `width` identities.
        running = (0..width).map(|_| op.ident()).collect();
    }
    let mut out = Vec::with_capacity(rows.len());
    // Slots are independent, so generate-then-accumulate can run as two
    // whole-row passes (letting `accum_slots` use the elementwise kernel)
    // instead of interleaving per slot — the per-slot result is identical.
    for row in rows {
        let out_row: Vec<Op::Out> = match kind {
            ScanKind::Exclusive => {
                let out_row = running.iter().zip(row.iter()).map(|(s, x)| op.scan_gen(s, x)).collect();
                op.accum_slots(&mut running, row);
                out_row
            }
            ScanKind::Inclusive => {
                op.accum_slots(&mut running, row);
                running.iter().zip(row.iter()).map(|(s, x)| op.scan_gen(s, x)).collect()
            }
        };
        out.push(out_row);
    }
    comm.advance((rows.len() * width) as u64 * (op.accum_ops() + 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_core::ops::builtin::{min, sum};
    use gv_core::ops::sorted::Sorted;
    use gv_msgpass::{RunError, Runtime};

    #[test]
    fn aggregated_reduce_matches_per_column_sequential() {
        // 4 ranks × 3 rows × 5 slots.
        let p = 4;
        let outcome = Runtime::new(p).run(|comm| {
            let rows: Vec<Vec<i64>> = (0..3)
                .map(|i| {
                    (0..5)
                        .map(|j| ((comm.rank() * 3 + i) * 5 + j) as i64 % 17 - 8)
                        .collect()
                })
                .collect();
            let row_refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            reduce_all_elementwise(comm, &min::<i64>(), &row_refs)
        });
        // Oracle: all 12 rows in rank order.
        let all_rows: Vec<Vec<i64>> = (0..12)
            .map(|r| (0..5).map(|j| (r * 5 + j) as i64 % 17 - 8).collect())
            .collect();
        for slot in 0..5 {
            let column: Vec<i64> = all_rows.iter().map(|r| r[slot]).collect();
            let expected = gv_core::seq::reduce(&min::<i64>(), &column);
            for res in &outcome.results {
                assert_eq!(res[slot], expected, "slot {slot}");
            }
        }
    }

    #[test]
    fn aggregated_scan_matches_per_column_sequential() {
        let p = 3;
        let all_rows: Vec<Vec<i64>> = (0..6)
            .map(|r| (0..4).map(|j| (r * 4 + j) as i64 % 11 - 5).collect())
            .collect();
        let outcome = Runtime::new(p).run(|comm| {
            let mine: Vec<&[i64]> = all_rows[comm.rank() * 2..comm.rank() * 2 + 2]
                .iter()
                .map(|r| r.as_slice())
                .collect();
            scan_elementwise(comm, &sum::<i64>(), &mine, ScanKind::Inclusive)
        });
        let flat: Vec<Vec<i64>> = outcome.results.into_iter().flatten().collect();
        for slot in 0..4 {
            let column: Vec<i64> = all_rows.iter().map(|r| r[slot]).collect();
            let expected = gv_core::seq::scan(&sum::<i64>(), &column, ScanKind::Inclusive);
            let got: Vec<i64> = flat.iter().map(|r| r[slot]).collect();
            assert_eq!(got, expected, "slot {slot}");
        }
    }

    /// Which ranks of `p` hold rows: the empty rank first, in the middle
    /// and last; every rank empty but one; every rank empty.
    fn placements(p: usize) -> Vec<Vec<bool>> {
        let all_but = |empty: usize| (0..p).map(|r| r != empty).collect();
        let only = |holder: usize| (0..p).map(|r| r == holder).collect();
        vec![
            all_but(0),
            all_but(p / 2),
            all_but(p - 1),
            only(0),
            only(p / 2),
            only(p - 1),
            vec![false; p],
        ]
    }

    /// Reduce and both scans over ranks some of which hold no rows,
    /// against `gv_core::agg` over the rows in rank order.
    fn check_with_empty_ranks<Op>(op: &Op, cell: impl Fn(usize, usize) -> Op::In + Sync)
    where
        Op: ReduceScanOp + Sync,
        Op::In: Sync,
        Op::State: Clone + Send + 'static,
        Op::Out: PartialEq + std::fmt::Debug + Send,
    {
        const WIDTH: usize = 3;
        for p in 2usize..=8 {
            for holds in placements(p) {
                // Two rows on every rank that holds any, numbered globally.
                let rows: Vec<Vec<Vec<Op::In>>> = (0..p)
                    .map(|r| {
                        let before = 2 * holds[..r].iter().filter(|&&h| h).count();
                        (before..before + 2 * usize::from(holds[r]))
                            .map(|i| (0..WIDTH).map(|j| cell(i, j)).collect())
                            .collect()
                    })
                    .collect();
                let all: Vec<&[Op::In]> = rows.iter().flatten().map(Vec::as_slice).collect();
                let outcome = Runtime::new(p).run(|comm| {
                    let mine: Vec<&[Op::In]> =
                        rows[comm.rank()].iter().map(Vec::as_slice).collect();
                    (
                        reduce_all_elementwise(comm, op, &mine),
                        scan_elementwise(comm, op, &mine, ScanKind::Inclusive),
                        scan_elementwise(comm, op, &mine, ScanKind::Exclusive),
                    )
                });
                let reduced = gv_core::agg::reduce_elementwise(op, &all);
                let mut inclusive = Vec::new();
                let mut exclusive = Vec::new();
                for (r, (red, inc, exc)) in outcome.results.into_iter().enumerate() {
                    assert_eq!(red, reduced, "p={p} holds={holds:?} rank {r}");
                    inclusive.extend(inc);
                    exclusive.extend(exc);
                }
                for (got, kind) in [
                    (inclusive, ScanKind::Inclusive),
                    (exclusive, ScanKind::Exclusive),
                ] {
                    let expected = gv_core::agg::scan_elementwise(op, &all, kind);
                    assert_eq!(got, expected, "p={p} holds={holds:?} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn a_rank_without_rows_is_the_identity() {
        check_with_empty_ranks(&sum::<i64>(), |i, j| (i * 7 + j * 3) as i64 % 11 - 5);
        check_with_empty_ranks(&min::<i64>(), |i, j| (i * 5 + j) as i64 % 13 - 6);
        // Non-commutative, and its identity differs from every reachable
        // state: column 0 ascends, column 1 breaks between the two rows of
        // one rank, column 2 between two ranks.
        check_with_empty_ranks(&Sorted::<i64>::new(), |i, j| match j {
            0 => i as i64,
            1 => i as i64 - 4 * (i % 2) as i64,
            _ => i as i64 - 4 * (i / 2 % 2) as i64,
        });
    }

    #[test]
    fn ranks_that_disagree_on_a_width_still_fail() {
        let error = Runtime::new(3)
            .try_run(|comm| {
                // Rank 1 is empty; ranks 0 and 2 hold 3 and 2 slots.
                let row = vec![1i64; [3, 0, 2][comm.rank()]];
                let rows: Vec<&[i64]> = if row.is_empty() { vec![] } else { vec![&row] };
                reduce_all_elementwise(comm, &sum::<i64>(), &rows)
            })
            .map(|outcome| outcome.results)
            .expect_err("3 slots cannot be combined with 2");
        let RunError::Failed(report) = error else {
            panic!("expected a failed rank, got {error}");
        };
        assert!(
            report
                .message
                .contains("aggregated reduction requires the same row width on every rank"),
            "{:?}",
            report.message
        );
    }

    #[test]
    fn wide_aggregated_scan_uses_the_pipelined_chain() {
        use gv_msgpass::ScanAlgorithm;
        // 16 Ki slots × 8 B of aggregate state: the splittable selector
        // must route the cross-rank prefix through the pipelined chain.
        let slots = 16 * 1024usize;
        let outcome = Runtime::new(8).run(move |comm| {
            let row: Vec<i64> = (0..slots).map(|j| (comm.rank() * slots + j) as i64).collect();
            let rows: Vec<&[i64]> = vec![&row];
            scan_elementwise(comm, &sum::<i64>(), &rows, ScanKind::Inclusive)
        });
        assert_eq!(
            outcome.stats.scan_algorithm_calls(ScanAlgorithm::PipelinedChain),
            8
        );
        // Spot-check the last rank's row against the column oracle.
        let last = &outcome.results[7][0];
        for j in [0usize, 1, slots - 1] {
            let expected: i64 = (0..8).map(|r| (r * slots + j) as i64).sum();
            assert_eq!(last[j], expected, "slot {j}");
        }
    }

    #[test]
    fn aggregation_beats_separate_reductions_on_modeled_time() {
        // TXT-AGG at the global-view layer: 32 separate single-slot
        // reductions vs one 32-slot aggregated reduction.
        let slots = 32usize;
        let separate = Runtime::new(8).run(|comm| {
            for j in 0..slots {
                let row = [(comm.rank() + j) as i64];
                crate::reduce::reduce_all(comm, &min::<i64>(), &row);
            }
        });
        let aggregated = Runtime::new(8).run(|comm| {
            let row: Vec<i64> = (0..slots).map(|j| (comm.rank() + j) as i64).collect();
            let rows: Vec<&[i64]> = vec![&row];
            reduce_all_elementwise(comm, &min::<i64>(), &rows);
        });
        assert!(
            aggregated.modeled_seconds < separate.modeled_seconds / 4.0,
            "aggregated={} separate={}",
            aggregated.modeled_seconds,
            separate.modeled_seconds
        );
        assert!(aggregated.stats.messages < separate.stats.messages / 4);
    }
}
