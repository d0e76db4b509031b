//! Aggregated global-view reductions and scans (paper §2.1 applied to the
//! global-view layer): `m` independent reductions computed at once, with
//! all `m` states shipped in a single message per tree edge.
//!
//! Both calls are the ordinary ones over [`Elementwise`]. Each takes the
//! row width, as MPI's `count` does: a rank that holds no rows then starts
//! from the same `width` identities as the others, so every rank's state
//! has the same slots.

use gv_core::agg::Elementwise;
use gv_core::op::{ReduceScanOp, ScanKind};
use gv_msgpass::Comm;

use crate::reduce::{accumulate_local, combining, reduce_all};
use crate::scan::rescan_block;

/// Element-wise aggregated global-view reduction: slot `j` of the result is
/// the reduction of slot `j` across all rows of all ranks (rows ordered by
/// rank, then by local row index), each row `width` slots. Result on
/// every rank.
pub fn reduce_all_elementwise<Op>(
    comm: &Comm,
    op: &Op,
    rows: &[&[Op::In]],
    width: usize,
) -> Vec<Op::Out>
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    reduce_all(comm, &Elementwise::new(op, width), rows)
}

/// Element-wise aggregated global-view scan: output row `i`, slot `j` is
/// the scan of slot `j` over all earlier rows (earlier ranks' rows
/// included), each row `width` slots. Each rank receives outputs for its
/// own rows. Only rank 0, whose exclusive prefix the aggregate's identity
/// is, builds all `width` identities.
pub fn scan_elementwise<Op>(
    comm: &Comm,
    op: &Op,
    rows: &[&[Op::In]],
    width: usize,
    kind: ScanKind,
) -> Vec<Vec<Op::Out>>
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let aggregate = Elementwise::new(op, width);
    let state = accumulate_local(comm, &aggregate, rows);
    let running = comm.scan_exclusive(
        state,
        || aggregate.ident(),
        |s| aggregate.wire_size(s),
        combining(comm, &aggregate),
    );
    let out = rescan_block(comm, &aggregate, rows, kind, running);
    // The rescan charged one `scan_gen` a row; an aggregated row makes one
    // a slot.
    let slots: usize = out.iter().map(Vec::len).sum();
    comm.advance(slots.saturating_sub(out.len()) as u64);
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
            reduce_all_elementwise(comm, &min::<i64>(), &row_refs, 5)
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
            scan_elementwise(comm, &sum::<i64>(), &mine, 4, ScanKind::Inclusive)
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

    /// Reduce and both scans of rows `width` slots wide at every `p` of
    /// `ranks`, over ranks some of which hold no rows, against the sequential
    /// engine over the rows in rank order.
    fn check_with_empty_ranks<Op>(
        op: &Op,
        width: usize,
        ranks: impl IntoIterator<Item = usize>,
        cell: impl Fn(usize, usize) -> Op::In + Sync,
    ) where
        Op: ReduceScanOp + Sync,
        Op::In: Sync,
        Op::State: Clone + Send + 'static,
        Op::Out: PartialEq + std::fmt::Debug + Send,
    {
        for p in ranks {
            for holds in placements(p) {
                // Two rows on every rank that holds any, numbered globally.
                let rows: Vec<Vec<Vec<Op::In>>> = (0..p)
                    .map(|r| {
                        let before = 2 * holds[..r].iter().filter(|&&h| h).count();
                        (before..before + 2 * usize::from(holds[r]))
                            .map(|i| (0..width).map(|j| cell(i, j)).collect())
                            .collect()
                    })
                    .collect();
                let all: Vec<&[Op::In]> = rows.iter().flatten().map(Vec::as_slice).collect();
                let outcome = Runtime::new(p).run(|comm| {
                    let mine: Vec<&[Op::In]> =
                        rows[comm.rank()].iter().map(Vec::as_slice).collect();
                    (
                        reduce_all_elementwise(comm, op, &mine, width),
                        scan_elementwise(comm, op, &mine, width, ScanKind::Inclusive),
                        scan_elementwise(comm, op, &mine, width, ScanKind::Exclusive),
                    )
                });
                let aggregate = Elementwise::new(op, width);
                let reduced = gv_core::seq::reduce(&aggregate, &all);
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
                    let expected = gv_core::seq::scan(&aggregate, &all, kind);
                    assert_eq!(got, expected, "p={p} holds={holds:?} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn a_rank_without_rows_is_the_identity() {
        check_with_empty_ranks(&sum::<i64>(), 3, 2..=8, |i, j| {
            (i * 7 + j * 3) as i64 % 11 - 5
        });
        check_with_empty_ranks(&min::<i64>(), 3, 2..=8, |i, j| (i * 5 + j) as i64 % 13 - 6);
        // A wide aggregate: a rank without rows still holds all 8192
        // identities, the same state as the ranks with rows.
        check_with_empty_ranks(&sum::<u64>(), 8192, [4, 8], |i, j| (i * 8192 + j) as u64);
        // Non-commutative, and its identity differs from every reachable
        // state: column 0 ascends, column 1 breaks between the two rows of
        // one rank, column 2 between two ranks.
        check_with_empty_ranks(&Sorted::<i64>::new(), 3, 2..=8, |i, j| match j {
            0 => i as i64,
            1 => i as i64 - 4 * (i % 2) as i64,
            _ => i as i64 - 4 * (i / 2 % 2) as i64,
        });
    }

    #[test]
    fn ranks_that_disagree_on_a_width_still_fail() {
        let error = Runtime::new(3)
            .try_run(|comm| {
                // Ranks 0 and 2 hold 3 and 2 slots; rank 1 holds none.
                let row = vec![1i64; [3, 0, 2][comm.rank()]];
                let rows: Vec<&[i64]> = if row.is_empty() { vec![] } else { vec![&row] };
                reduce_all_elementwise(comm, &sum::<i64>(), &rows, row.len())
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
    fn wide_aggregated_scan_matches_the_column_oracle() {
        // 16 Ki slots × 8 B of aggregate state, across eight ranks.
        let slots = 16 * 1024usize;
        let outcome = Runtime::new(8).run(move |comm| {
            let row: Vec<i64> = (0..slots)
                .map(|j| (comm.rank() * slots + j) as i64)
                .collect();
            let rows: Vec<&[i64]> = vec![&row];
            scan_elementwise(comm, &sum::<i64>(), &rows, slots, ScanKind::Inclusive)
        });
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
            reduce_all_elementwise(comm, &min::<i64>(), &rows, slots);
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
