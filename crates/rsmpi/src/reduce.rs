//! Global-view reductions over the message-passing substrate — paper
//! Listing 2, distributed.
//!
//! ```text
//! forall processors q in 0..p−1
//!     s_q ← f_ident()
//!     if n > 0: s_q ← f_pre_accum(s_q, in_q(0))
//!     for i in 0..n−1: s_q ← f_accum(s_q, in_q(i))
//!     if n > 0: s_q ← f_post_accum(s_q, in_q(n−1))
//! LOCAL_REDUCE(f_combine, s_q)
//! forall processors q: out_q ← f_red_gen(s_q)
//! ```
//!
//! Each rank passes its *local block* of the conceptual global array; the
//! accumulate phase runs locally (charged to the virtual clock at
//! [`ReduceScanOp::accum_ops`] per element), the states cross the network
//! with [`ReduceScanOp::wire_size`] modeled bytes, and combining respects
//! rank order whenever the operator is non-commutative.

use std::ops::Add;
use std::rc::Rc;

use gv_core::iter::{accumulate_iter, accumulate_located, ValueSource};
use gv_core::kernel::ValueGate;
use gv_core::op::{accumulate_block, ReduceScanOp};
use gv_core::split::SplittableState;
use gv_msgpass::{Comm, Request, RequestError};

/// Runs the accumulate phase of Listing 2 for this rank's block and
/// charges its modeled compute cost.
pub(crate) fn accumulate_local<Op: ReduceScanOp>(
    comm: &Comm,
    op: &Op,
    local: &[Op::In],
) -> Op::State {
    let mut state = op.ident();
    accumulate_block(op, &mut state, local);
    comm.advance(local.len() as u64 * op.accum_ops());
    state
}

/// Builds the `(earlier, later) → earlier⊕later` closure handed to the
/// local-view combine tree, charging combine cost to the virtual clock.
pub(crate) fn combining<'a, Op: ReduceScanOp>(
    comm: &'a Comm,
    op: &'a Op,
) -> impl FnMut(Op::State, Op::State) -> Op::State + 'a {
    move |mut earlier, later| {
        comm.advance(op.combine_ops(&later));
        op.combine(&mut earlier, later);
        earlier
    }
}

/// Cross-rank combine of an already-accumulated state: cost-selected
/// allreduce with the operator's commutativity flag plumbed through —
/// the paper's point that the declaration is the runtime's license to
/// reorder combining.
pub(crate) fn allreduce_state<Op>(comm: &Comm, op: &Op, state: Op::State) -> Op::State
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    comm.allreduce(
        state,
        Op::COMMUTATIVE,
        |s| op.wire_size(s),
        combining(comm, op),
    )
}

/// Like [`allreduce_state`] but for [`SplittableState`] operators: the
/// selector may additionally choose the bandwidth-optimal reduce-scatter
/// + allgather schedule (only when the operator is also commutative).
pub(crate) fn allreduce_state_splittable<Op>(comm: &Comm, op: &Op, state: Op::State) -> Op::State
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    comm.allreduce_splittable(
        state,
        Op::COMMUTATIVE,
        |s, parts| op.split_state(s, parts),
        |segments| op.unsplit_state(segments),
        |s| op.wire_size(s),
        combining(comm, op),
    )
}

/// Global-view reduction delivering the result to every rank — the paper's
/// `RSMPI_Reduceall`.
///
/// `local` is this rank's contiguous block of the conceptual global array
/// (blocks are concatenated in rank order).
pub fn reduce_all<Op>(comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate_local(comm, op, local);
    op.red_gen(allreduce_state(comm, op, state))
}

/// [`reduce_all`] for operators with splittable states: eligible for the
/// reduce-scatter + allgather schedule when the cost model favors it.
pub fn reduce_all_splittable<Op>(comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate_local(comm, op, local);
    op.red_gen(allreduce_state_splittable(comm, op, state))
}

/// [`reduce_all`] over a streamed local block: the paper's RSMPI call
/// sites pass an *iterator* describing the values each processor
/// accumulates ("the programmer first defines an iterator to describe the
/// values passed to the accumulate function"), so a generated conceptual
/// array never needs to be materialized: the stream is staged through the
/// block kernels ([`accumulate_iter`]), one block at a time
/// (`tests/alloc_budget.rs` counts it).
pub fn reduce_all_from_iter<Op, I>(comm: &Comm, op: &Op, values: I) -> Op::Out
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
    I: IntoIterator<Item = Op::In>,
{
    let (state, count) = accumulate_iter(op, values);
    comm.advance(count * op.accum_ops());
    op.red_gen(allreduce_state(comm, op, state))
}

/// [`reduce_all`] over a *located* local block: element `i` of this rank's
/// block is the pair `(values[i], first + i)` — the paper's `mini` over
/// `[i in 1..n] (A(i), i)` (Listing 5), or ZRAN3's `(value, global index)`
/// cells — and no pair is ever stored ([`accumulate_located`]). The
/// values are a slice read in place or a [`Generated`] stream that is
/// never stored either ([`ValueSource`]). The virtual clock is charged one
/// accumulate per value and the states cross ranks by the same
/// whole-state allreduce as [`reduce_all_from_iter`] over the same pairs,
/// so the result, messages, bytes and modeled clock are that call's.
///
/// [`Generated`]: gv_core::iter::Generated
pub fn reduce_all_located<Op, T, L>(
    comm: &Comm,
    op: &Op,
    values: impl ValueSource<T>,
    first: L,
) -> Op::Out
where
    Op: ValueGate<T, In = (T, L)>,
    Op::State: Clone + Send + 'static,
    T: Copy,
    L: Copy + Add<Output = L> + TryFrom<usize>,
{
    let (state, count) = accumulate_located(op, values, first);
    comm.advance(count * op.accum_ops());
    op.red_gen(allreduce_state(comm, op, state))
}

/// An in-flight [`ireduce_all`]: the cross-rank combine is parked in the
/// rank's progress engine; `wait`/`test` resolve it and apply the
/// operator's `red_gen` to the combined state.
pub struct ReduceAllRequest<Op: ReduceScanOp> {
    inner: Request<Op::State>,
    op: Rc<Op>,
}

impl<Op: ReduceScanOp> ReduceAllRequest<Op>
where
    Op::State: 'static,
{
    /// Blocks (driving the progress engine) until the reduction
    /// completes, then generates the output.
    pub fn wait(&mut self) -> Result<Op::Out, RequestError> {
        self.inner.wait().map(|s| self.op.red_gen(s))
    }

    /// Polls once without blocking: `Ok(Some(out))` when complete.
    pub fn test(&mut self) -> Result<Option<Op::Out>, RequestError> {
        Ok(self.inner.test()?.map(|s| self.op.red_gen(s)))
    }
}

/// Non-blocking [`reduce_all`]: the accumulate phase still runs inline
/// (it is local compute), but the cross-rank combine returns immediately
/// as a request, letting the caller overlap further accumulation or
/// independent collectives — MPI's `MPI_Iallreduce` shape lifted to
/// user-defined operators. The operator moves into the request
/// (`'static` closures cannot borrow it), so pass it by value.
pub fn ireduce_all<Op>(comm: &Comm, op: Op, local: &[Op::In]) -> ReduceAllRequest<Op>
where
    Op: ReduceScanOp + 'static,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate_local(comm, &op, local);
    let op = Rc::new(op);
    let handle = comm.clone_handle();
    let bytes_op = Rc::clone(&op);
    let combine_op = Rc::clone(&op);
    let inner = comm.iallreduce(
        state,
        Op::COMMUTATIVE,
        move |s| bytes_op.wire_size(s),
        move |mut earlier, later| {
            handle.advance(combine_op.combine_ops(&later));
            combine_op.combine(&mut earlier, later);
            earlier
        },
    );
    ReduceAllRequest { inner, op }
}

/// Global-view reduction delivering the result to `root` only — the
/// paper's `RSMPI_Reduce`. Returns `Some(out)` at the root, `None`
/// elsewhere.
pub fn reduce<Op>(comm: &Comm, root: usize, op: &Op, local: &[Op::In]) -> Option<Op::Out>
where
    Op: ReduceScanOp,
    Op::State: Send + 'static,
{
    let state = accumulate_local(comm, op, local);
    comm.reduce(root, state, |s| op.wire_size(s), combining(comm, op))
        .map(|s| op.red_gen(s))
}

/// Like [`reduce_all`] but over the contiguous-block k-ary tree with an
/// explicit branching factor, combining in the schedule that
/// `claim_commutative` selects (the TXT-COMM ablation knob). Pass
/// [`ReduceScanOp::COMMUTATIVE`] to honour the operator's declaration;
/// passing `true` for a non-commutative operator *overrides* it, which
/// reproduces the paper's §4.1 experiment: "we flagged the \[sorted\]
/// reduction as commutative. This resulted in no speedup, though the
/// program did fail to verify that the array was sorted (as expected)."
/// The result lands on every rank.
pub fn reduce_all_claiming_commutativity<Op>(
    comm: &Comm,
    op: &Op,
    local: &[Op::In],
    branching: usize,
    claim_commutative: bool,
) -> Op::Out
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate_local(comm, op, local);
    let at_zero = comm.reduce_with_branching(
        0,
        state,
        claim_commutative,
        branching,
        |s| op.wire_size(s),
        combining(comm, op),
    );
    let combined = comm.bcast(0, at_zero);
    op.red_gen(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_core::monoid::MonoidOp;
    use gv_core::ops::builtin::{max, min, sum, Min};
    use gv_core::ops::mink::MinK;
    use gv_core::ops::sorted::Sorted;
    use gv_executor::chunk_ranges;
    use gv_msgpass::Runtime;

    /// Distributes `data` over `p` ranks in contiguous blocks and runs `f`.
    fn blocks(data: &[i64], p: usize) -> Vec<Vec<i64>> {
        chunk_ranges(data.len(), p)
            .map(|r| data[r].to_vec())
            .collect()
    }

    #[test]
    fn distributed_sum_matches_sequential_for_all_rank_counts() {
        let data: Vec<i64> = (0..1000).map(|i| (i * 37) % 211 - 100).collect();
        let expected = gv_core::seq::reduce(&sum::<i64>(), &data);
        for p in [1usize, 2, 3, 7, 16] {
            let chunks = blocks(&data, p);
            let outcome =
                Runtime::new(p).run(|comm| reduce_all(comm, &sum::<i64>(), &chunks[comm.rank()]));
            assert_eq!(outcome.results, vec![expected; p], "p={p}");
        }
    }

    #[test]
    fn distributed_mink_matches_sequential() {
        let data: Vec<i64> = (0..500).map(|i| (i * 67 + 13) % 499).collect();
        let op = MinK::<i64>::new(10);
        let expected = gv_core::seq::reduce(&op, &data);
        for p in [1usize, 4, 9] {
            let chunks = blocks(&data, p);
            let outcome = Runtime::new(p)
                .run(|comm| reduce_all(comm, &MinK::<i64>::new(10), &chunks[comm.rank()]));
            for got in outcome.results {
                assert_eq!(got, expected, "p={p}");
            }
        }
    }

    #[test]
    fn distributed_sorted_detects_cross_rank_violations() {
        let mut data: Vec<i64> = (0..256).collect();
        for p in [2usize, 5, 8] {
            let chunks = blocks(&data, p);
            let ok = Runtime::new(p)
                .run(|comm| reduce_all(comm, &Sorted::<i64>::new(), &chunks[comm.rank()]));
            assert_eq!(ok.results, vec![true; p]);
        }
        // Break sortedness exactly at a 4-rank block boundary (element 64).
        data.swap(63, 64);
        let chunks = blocks(&data, 4);
        let bad = Runtime::new(4)
            .run(|comm| reduce_all(comm, &Sorted::<i64>::new(), &chunks[comm.rank()]));
        assert_eq!(bad.results, vec![false; 4]);
    }

    #[test]
    fn rooted_reduce_only_lands_on_root() {
        let data: Vec<i64> = (0..64).collect();
        let chunks = blocks(&data, 4);
        let outcome =
            Runtime::new(4).run(|comm| reduce(comm, 2, &max::<i64>(), &chunks[comm.rank()]));
        for (rank, res) in outcome.results.into_iter().enumerate() {
            assert_eq!(res, (rank == 2).then_some(63));
        }
    }

    #[test]
    fn branching_variants_agree_on_value() {
        let data: Vec<i64> = (0..300).map(|i| (i * 91) % 157).collect();
        let expected = gv_core::seq::reduce(&min::<i64>(), &data);
        for branching in [2usize, 4, 8] {
            let chunks = blocks(&data, 8);
            let outcome = Runtime::new(8).run(|comm| {
                let commutative = <MonoidOp<Min<i64>> as ReduceScanOp>::COMMUTATIVE;
                let local = &chunks[comm.rank()];
                reduce_all_claiming_commutativity(comm, &min(), local, branching, commutative)
            });
            assert_eq!(outcome.results, vec![expected; 8]);
        }
    }

    #[test]
    fn falsely_claiming_commutativity_breaks_sorted() {
        // Paper §4.1: flagging the non-commutative sorted reduction as
        // commutative makes verification fail (combining out of order).
        // With availability-order combining the wrong answer is only
        // *possible*, not guaranteed; we force it by staggering rank
        // speeds so a later rank's state arrives first.
        let data: Vec<i64> = (0..64).collect(); // perfectly sorted
        let chunks = blocks(&data, 8);
        let outcome = Runtime::new(8).run(|comm| {
            // Make low ranks slow so high-rank states are available first
            // at the k-ary root.
            comm.advance((8 - comm.rank() as u64) * 1_000_000);
            reduce_all_claiming_commutativity(
                comm,
                &Sorted::<i64>::new(),
                &chunks[comm.rank()],
                8,
                true,
            )
        });
        assert_eq!(
            outcome.results,
            vec![false; 8],
            "out-of-order combining must make the sorted check fail"
        );
    }

    #[test]
    fn splittable_reduce_all_matches_plain_reduce_all() {
        use gv_core::ops::counts::Counts;
        use gv_core::ops::topk::TopBottomK;
        let particles: Vec<usize> = (0..400).map(|i| (i * 7 + 3) % 16).collect();
        let samples: Vec<(f64, u64)> = (0..300u64)
            .map(|i| ((((i * 193) % 101) as f64) / 101.0, i))
            .collect();
        for p in [1usize, 2, 5, 8, 9] {
            let counts_chunks: Vec<Vec<usize>> = chunk_ranges(particles.len(), p)
                .map(|r| particles[r].to_vec())
                .collect();
            let outcome = Runtime::new(p).run(|comm| {
                let op = Counts::new(16);
                let split = reduce_all_splittable(comm, &op, &counts_chunks[comm.rank()]);
                let plain = reduce_all(comm, &op, &counts_chunks[comm.rank()]);
                (split, plain)
            });
            let expected = gv_core::seq::reduce(&Counts::new(16), &particles);
            for (split, plain) in outcome.results {
                assert_eq!(split, expected, "p={p}");
                assert_eq!(plain, expected, "p={p}");
            }

            let topk_chunks: Vec<Vec<(f64, u64)>> = chunk_ranges(samples.len(), p)
                .map(|r| samples[r].to_vec())
                .collect();
            let outcome = Runtime::new(p).run(|comm| {
                let op = TopBottomK::<f64, u64>::new(10);
                reduce_all_from_iter(comm, &op, topk_chunks[comm.rank()].iter().copied())
            });
            let expected = gv_core::seq::reduce(&TopBottomK::<f64, u64>::new(10), &samples);
            for got in outcome.results {
                assert_eq!(got, expected, "topk p={p}");
            }
        }
    }

    #[test]
    fn ireduce_all_matches_blocking_and_overlaps() {
        let data: Vec<i64> = (0..1000).map(|i| (i * 37) % 211 - 100).collect();
        let expected_sum = gv_core::seq::reduce(&sum::<i64>(), &data);
        let expected_max = gv_core::seq::reduce(&max::<i64>(), &data);
        for p in [1usize, 2, 5, 8] {
            let chunks = blocks(&data, p);
            let outcome = Runtime::new(p).run(|comm| {
                // Two reductions in flight at once, completed in reverse
                // issue order.
                let mut rsum = ireduce_all(comm, sum::<i64>(), &chunks[comm.rank()]);
                let mut rmax = ireduce_all(comm, max::<i64>(), &chunks[comm.rank()]);
                let vmax = rmax.wait().unwrap();
                let vsum = rsum.wait().unwrap();
                (vsum, vmax)
            });
            assert_eq!(
                outcome.results,
                vec![(expected_sum, expected_max); p],
                "p={p}"
            );
        }
    }

    #[test]
    fn empty_blocks_are_tolerated() {
        // More ranks than elements: some blocks are empty.
        let data: Vec<i64> = vec![3, 9];
        let chunks = blocks(&data, 5);
        let outcome =
            Runtime::new(5).run(|comm| reduce_all(comm, &sum::<i64>(), &chunks[comm.rank()]));
        assert_eq!(outcome.results, vec![12; 5]);
    }
}
