//! Global-view scans over the message-passing substrate — paper Listing 3,
//! distributed. This is the paper's headline novelty: "the first
//! user-defined scan formulation for higher level languages".
//!
//! ```text
//! forall processors q:   (accumulate phase, with pre/post hooks)
//!     s_q ← accumulate(in_q)
//! LOCAL_XSCAN(f_ident, f_combine, s_q)
//! forall processors q:   (rescan phase)
//!     for i in 0..n−1:
//!         out_q(i) ← f_scan_gen(s_q, in_q(i))
//!         s_q ← f_accum(s_q, in_q(i))
//! ```
//!
//! "By interchanging lines 12 and 13, this algorithm is made to compute an
//! inclusive scan" — which is what [`ScanKind::Inclusive`] does.

use gv_core::op::{ElementwiseState, ReduceScanOp, ScanKind};
use gv_core::split::SplittableState;
use gv_msgpass::collectives::select::Segmentation;
use gv_msgpass::collectives::tree::whole;
use gv_msgpass::collectives::{By, Counted};
use gv_msgpass::{Comm, ScanAlgorithm};

use crate::reduce::{accumulate_local, combining, units_of};

/// Global-view scan: each rank passes its local block and receives the
/// scan outputs for exactly its block's positions.
///
/// The cross-rank prefix runs as a dedicated exclusive scan, so it is
/// accounted as one `Exscan` call per rank (see the `scan_both`
/// convention in `gv-msgpass`). Its schedule is priced at the operator's
/// identity, which every rank holds alike: a `TopBottomK` state grows
/// with the entries a rank holds, and ranks that priced their own would
/// pick different schedules. A counting operator
/// ([`ReduceScanOp::elementwise`]) starts every rank from one identity,
/// which prices the schedule and holds the prefix, and hands the
/// transport its block's units where they may ship
/// ([`counting_prefix`]).
pub fn scan<Op>(comm: &Comm, op: &Op, local: &[Op::In], kind: ScanKind) -> Vec<Op::Out>
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let running = match op.elementwise() {
        Some(slots) => counting_prefix(comm, op, slots, local, None),
        None => {
            // Phase 1 (Listing 3 lines 1–8): local accumulate, hooks included.
            let state = accumulate_local(comm, op, local);
            // Line 9: LOCAL_XSCAN of the per-rank states across ranks.
            let (bytes_of, combine) = (|s: &_| op.wire_size(s), combining(comm, op));
            comm.scan_exclusive(state, || op.ident(), bytes_of, combine)
        }
    };

    rescan_block(comm, op, local, kind, running)
}

/// The exclusive prefix of a counting operator's block: each rank builds
/// one identity, which prices the schedule alike on every rank and holds
/// the result. Where the call runs recursive doubling, the one schedule
/// that ships units (selected by the transport's rule on a state of the
/// identity's size), a block whose units may ship ([`units_of`]) leaves
/// them to the transport, which counts the rank's own into a state only
/// when a round must send slots; any other block is accumulated into it,
/// and no units are built for it. The last rank's block is in no rank's
/// exclusive prefix, so it is counted into nothing: at p = 1 the identity
/// is the prefix.
fn counting_prefix<Op>(
    comm: &Comm,
    op: &Op,
    slots: &dyn ElementwiseState<Op::State, Op::In>,
    local: &[Op::In],
    segmentation: Option<Segmentation<'_, Op::State>>,
) -> Op::State
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let mut state = op.ident();
    let cost = comm.cost_model();
    let bytes = op.wire_size(&state);
    let plan = ScanAlgorithm::select(&cost, comm.size(), bytes, segmentation.is_some());
    let units = if comm.rank() + 1 == comm.size() {
        Some(Vec::new())
    } else if plan.0 == ScanAlgorithm::RecursiveDoubling {
        units_of(slots, local, &mut state)
    } else {
        None
    };
    if units.is_none() {
        gv_core::op::accumulate_block(op, &mut state, local);
        comm.advance(local.len() as u64 * op.accum_ops());
    }
    let (ident, bytes_of, combine) = (|| op.ident(), |s: &_| op.wire_size(s), combining(comm, op));
    let plan = By(plan, Counted::new(op, units));
    match segmentation {
        Some(split) => comm.scan_exclusive_by(plan, state, ident, split, bytes_of, combine),
        None => comm.scan_exclusive_by(plan, state, ident, whole(), bytes_of, combine),
    }
}

/// [`scan`] for operators with splittable states: the cross-rank prefix
/// scan is additionally eligible for the pipelined chain schedule, which
/// moves the least aggregate traffic of any scan schedule and overlaps
/// chain latency with bandwidth — the winning choice for large states
/// under the α–β cost model. Priced at the identity, as [`scan`] is.
pub fn scan_splittable<Op>(comm: &Comm, op: &Op, local: &[Op::In], kind: ScanKind) -> Vec<Op::Out>
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    let split = |s, parts| op.split_state(s, parts);
    let unsplit = |segments| op.unsplit_state(segments);
    let running = match op.elementwise() {
        Some(slots) => counting_prefix(comm, op, slots, local, Some((&split, &unsplit))),
        None => {
            let state = accumulate_local(comm, op, local);
            let (ident, bytes_of) = (|| op.ident(), |s: &_| op.wire_size(s));
            let combine = combining(comm, op);
            comm.scan_exclusive_splittable(state, ident, split, unsplit, bytes_of, combine)
        }
    };

    rescan_block(comm, op, local, kind, running)
}

/// Listing 3 lines 10–13: rescan the local block from the incoming
/// exclusive-prefix state. The element loop is the shared `gv-core`
/// rescan (block kernels and all); the modeled cost charged to the clock
/// is unchanged — it counts semantic `accum`/`scan_gen` applications, not
/// wall time, so recorded traces stay bit-identical whichever dispatch
/// fires.
pub(crate) fn rescan_block<Op: ReduceScanOp>(
    comm: &Comm,
    op: &Op,
    local: &[Op::In],
    kind: ScanKind,
    mut running: Op::State,
) -> Vec<Op::Out> {
    let mut out = Vec::with_capacity(local.len());
    gv_core::op::rescan_block(op, &mut running, local, kind, &mut out);
    comm.advance(local.len() as u64 * (op.accum_ops() + 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_core::ops::builtin::sum;
    use gv_core::ops::counts::BucketRank;
    use gv_core::ops::sorted::Sorted;
    use gv_executor::chunk_ranges;
    use gv_msgpass::Runtime;

    fn check_against_sequential<Op>(
        op_factory: impl Fn() -> Op + Sync,
        data: &[Op::In],
        kind: ScanKind,
    ) where
        Op: ReduceScanOp,
        Op::In: Clone + Sync,
        Op::State: Clone + Send + 'static,
        Op::Out: PartialEq + std::fmt::Debug + Send,
    {
        let expected = gv_core::seq::scan(&op_factory(), data, kind);
        for p in [1usize, 2, 3, 5, 8] {
            let chunks: Vec<Vec<Op::In>> = chunk_ranges(data.len(), p)
                .map(|r| data[r].to_vec())
                .collect();
            let outcome =
                Runtime::new(p).run(|comm| scan(comm, &op_factory(), &chunks[comm.rank()], kind));
            let flattened: Vec<Op::Out> = outcome.results.into_iter().flatten().collect();
            assert_eq!(flattened, expected, "p={p} kind={kind:?}");
        }
    }

    #[test]
    fn distributed_sum_scan_matches_sequential() {
        let data: Vec<i64> = (0..200).map(|i| (i * 13) % 23 - 11).collect();
        check_against_sequential(sum::<i64>, &data, ScanKind::Inclusive);
        check_against_sequential(sum::<i64>, &data, ScanKind::Exclusive);
    }

    #[test]
    fn paper_exclusive_scan_through_rsmpi() {
        let data: Vec<i64> = vec![6, 7, 6, 3, 8, 2, 8, 4, 8, 3];
        let chunks: Vec<Vec<i64>> = chunk_ranges(10, 5).map(|r| data[r].to_vec()).collect();
        let outcome = Runtime::new(5).run(|comm| {
            scan(
                comm,
                &sum::<i64>(),
                &chunks[comm.rank()],
                ScanKind::Exclusive,
            )
        });
        let flat: Vec<i64> = outcome.results.into_iter().flatten().collect();
        assert_eq!(flat, vec![0, 6, 13, 19, 22, 30, 32, 40, 44, 52]);
    }

    #[test]
    fn particle_ranking_scan_from_the_paper() {
        // §3.1.3: octant ranking of [6,7,6,3,8,2,8,4,8,3] (1-based octants).
        let particles: Vec<usize> = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3]
            .iter()
            .map(|&o| o - 1)
            .collect();
        let chunks: Vec<Vec<usize>> = chunk_ranges(particles.len(), 3)
            .map(|r| particles[r].to_vec())
            .collect();
        let outcome = Runtime::new(3).run(|comm| {
            scan(
                comm,
                &BucketRank::new(8),
                &chunks[comm.rank()],
                ScanKind::Inclusive,
            )
        });
        let flat: Vec<u64> = outcome.results.into_iter().flatten().collect();
        assert_eq!(flat, vec![1, 1, 2, 1, 1, 1, 2, 1, 3, 2]);
    }

    #[test]
    fn noncommutative_sorted_scan_matches_sequential() {
        let mut data: Vec<i64> = (0..60).collect();
        data.swap(40, 41);
        let op = || Sorted::<i64>::new();
        let expected = gv_core::seq::scan(&op(), &data, ScanKind::Inclusive);
        let chunks: Vec<Vec<i64>> = chunk_ranges(60, 4).map(|r| data[r].to_vec()).collect();
        let outcome = Runtime::new(4)
            .run(|comm| scan(comm, &op(), &chunks[comm.rank()], ScanKind::Inclusive));
        let flat: Vec<bool> = outcome.results.into_iter().flatten().collect();
        assert_eq!(flat, expected);
    }

    #[test]
    fn splittable_scan_matches_plain_and_sequential() {
        use gv_core::ops::counts::Counts;
        let particles: Vec<usize> = (0..240).map(|i| (i * 11 + 5) % 16).collect();
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let expected = gv_core::seq::scan(&Counts::new(16), &particles, kind);
            for p in [1usize, 2, 3, 5, 8] {
                let chunks: Vec<Vec<usize>> = chunk_ranges(particles.len(), p)
                    .map(|r| particles[r].to_vec())
                    .collect();
                let outcome = Runtime::new(p).run(|comm| {
                    let op = Counts::new(16);
                    (
                        scan_splittable(comm, &op, &chunks[comm.rank()], kind),
                        scan(comm, &op, &chunks[comm.rank()], kind),
                    )
                });
                let mut split = Vec::new();
                let mut plain = Vec::new();
                for (s, pl) in outcome.results {
                    split.extend(s);
                    plain.extend(pl);
                }
                assert_eq!(split, expected, "splittable p={p} kind={kind:?}");
                assert_eq!(plain, expected, "plain p={p} kind={kind:?}");
            }
        }
    }

    #[test]
    fn splittable_scan_on_bucket_rank_matches_paper_answer() {
        // The §3.1.3 particle ranking again, this time through the
        // splittable prefix path: BucketRank's count-vector state chunks
        // contiguously, so the chain schedule is legal for it.
        let particles: Vec<usize> = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3]
            .iter()
            .map(|&o| o - 1)
            .collect();
        let chunks: Vec<Vec<usize>> = chunk_ranges(particles.len(), 3)
            .map(|r| particles[r].to_vec())
            .collect();
        let outcome = Runtime::new(3).run(|comm| {
            scan_splittable(
                comm,
                &BucketRank::new(8),
                &chunks[comm.rank()],
                ScanKind::Inclusive,
            )
        });
        let flat: Vec<u64> = outcome.results.into_iter().flatten().collect();
        assert_eq!(flat, vec![1, 1, 2, 1, 1, 1, 2, 1, 3, 2]);
    }

    #[test]
    fn splittable_scan_picks_pipelined_chain_for_large_states() {
        use gv_msgpass::ScanAlgorithm;
        // 16 Ki buckets × 8 B = 128 KiB of state: far past the chain
        // crossover at p = 8, so the selector must route the prefix scan
        // through the pipelined chain and attribute it in the stats.
        let buckets = 16 * 1024;
        let particles: Vec<usize> = (0..512).map(|i| (i * 131) % buckets).collect();
        let expected =
            gv_core::seq::scan(&BucketRank::new(buckets), &particles, ScanKind::Exclusive);
        let chunks: Vec<Vec<usize>> = chunk_ranges(particles.len(), 8)
            .map(|r| particles[r].to_vec())
            .collect();
        let outcome = Runtime::new(8).run(|comm| {
            scan_splittable(
                comm,
                &BucketRank::new(buckets),
                &chunks[comm.rank()],
                ScanKind::Exclusive,
            )
        });
        let flat: Vec<u64> = outcome.results.into_iter().flatten().collect();
        assert_eq!(flat, expected);
        assert_eq!(
            outcome
                .stats
                .scan_algorithm_calls(ScanAlgorithm::PipelinedChain),
            8,
            "every rank should have run the chain schedule once"
        );
        assert_eq!(
            outcome
                .stats
                .scan_algorithm_calls(ScanAlgorithm::RecursiveDoubling),
            0
        );
    }

    #[test]
    fn empty_blocks_in_scan() {
        let data: Vec<i64> = vec![1, 2, 3];
        let chunks: Vec<Vec<i64>> = chunk_ranges(3, 6).map(|r| data[r].to_vec()).collect();
        let outcome = Runtime::new(6).run(|comm| {
            scan(
                comm,
                &sum::<i64>(),
                &chunks[comm.rank()],
                ScanKind::Inclusive,
            )
        });
        let flat: Vec<i64> = outcome.results.into_iter().flatten().collect();
        assert_eq!(flat, vec![1, 3, 6]);
    }
}
