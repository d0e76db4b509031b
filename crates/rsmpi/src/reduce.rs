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

use std::rc::Rc;

use gv_core::iter::Input;
use gv_core::op::{ElementwiseState, ReduceScanOp};
use gv_core::split::SplittableState;
use gv_msgpass::collectives::{ships_units, By, Counted};
use gv_msgpass::{AllreduceAlgorithm, Comm, Request, RequestError};

/// Runs the accumulate phase of Listing 2 for this rank's block and
/// charges its modeled compute cost.
pub(crate) fn accumulate_local<Op: ReduceScanOp>(
    comm: &Comm,
    op: &Op,
    local: impl Input<Op>,
) -> Op::State {
    let mut state = op.ident();
    let count = local.accumulate(op, &mut state);
    comm.advance(count * op.accum_ops());
    state
}

/// [`accumulate_local`] for a reduction, and for a counting operator
/// ([`ReduceScanOp::elementwise`]) how its states cross: beside the state
/// the rank's units — the slot each input adds one to — when the input is
/// a slice, another rank may receive them and [`ships_units`] says they
/// are the cheaper form of a state of that many slots.
fn accumulate_counted<'o, Op: ReduceScanOp>(
    comm: &Comm,
    op: &'o Op,
    local: impl Input<Op>,
) -> (Op::State, Option<Counted<&'o Op>>) {
    let mut state = op.ident();
    let counted = op.elementwise().map(|slots| {
        let units = (comm.size() > 1)
            .then(|| units_of(slots, local.as_slice()?, &mut state))
            .flatten();
        Counted::new(op, units)
    });
    let count = local.accumulate(op, &mut state);
    comm.advance(count * op.accum_ops());
    (state, counted)
}

/// The slot each input of `block` adds one to, when [`ships_units`] says
/// they are the cheaper form of a state like `state`.
pub(crate) fn units_of<S, In>(
    slots: &dyn ElementwiseState<S, In>,
    block: &[In],
    state: &mut S,
) -> Option<Vec<u32>> {
    let width = slots.slots(state).len();
    // `ships_units` holds only for widths a `u32` indexes.
    ships_units(block.len(), width).then(|| block.iter().map(|x| slots.slot_of(x) as u32).collect())
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

/// Global-view reduction delivering the result to every rank — the paper's
/// `RSMPI_Reduceall`.
///
/// `local` is this rank's contiguous block of the conceptual global array
/// (blocks are concatenated in rank order): a slice, a
/// [`Staged`](gv_core::iter::Staged) stream — the paper's RSMPI call
/// sites pass an iterator describing the values each processor
/// accumulates — or a [`Located`](gv_core::iter::Located) run of values
/// whose pairs are never stored. Whichever it is, the virtual clock is
/// charged one accumulate per element and the states cross ranks by the
/// same allreduce, so the same elements give the same result, messages,
/// bytes and modeled clock — except that a counting operator
/// ([`ReduceScanOp::elementwise`]) given a slice may ship its units, the
/// slot each input counts in, where they are fewer bytes than its state.
pub fn reduce_all<Op>(comm: &Comm, op: &Op, local: impl Input<Op>) -> Op::Out
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let (state, counted) = accumulate_counted(comm, op, local);
    let (bytes_of, combine) = (|s: &_| op.wire_size(s), combining(comm, op));
    let state = match counted {
        Some(counted) => {
            let plan = By(AllreduceAlgorithm::RecursiveDoubling, counted);
            comm.allreduce_by(plan, state, bytes_of, combine)
        }
        None => comm.allreduce(state, Op::COMMUTATIVE, bytes_of, combine),
    };
    op.red_gen(state)
}

/// [`reduce_all`]: an alias the frozen benchmark adapter calls.
pub fn reduce_all_splittable<Op>(comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    reduce_all(comm, op, local)
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
/// (`'static` closures cannot borrow it), so pass it by value. A
/// commutative operator's request runs the tree rooted at its call
/// sequence mod p ([`Comm::iallreduce`]); when its state counts
/// ([`ReduceScanOp::elementwise`]), that tree hands every child its own
/// buffer back with the result instead of a clone ([`Counted`]).
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
    let bytes_of = move |s: &Op::State| bytes_op.wire_size(s);
    let combine = move |mut earlier, later| {
        handle.advance(combine_op.combine_ops(&later));
        combine_op.combine(&mut earlier, later);
        earlier
    };
    let commutative = Op::COMMUTATIVE;
    let inner = match op.elementwise() {
        Some(_) => {
            let counted = Counted::new(Rc::clone(&op), None);
            comm.iallreduce_by(counted, state, commutative, bytes_of, combine)
        }
        None => comm.iallreduce(state, commutative, bytes_of, combine),
    };
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
    use gv_core::iter::Staged;
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
                let commutative = <Min<i64> as ReduceScanOp>::COMMUTATIVE;
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
    fn counts_and_topk_reduce_all_match_sequential() {
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
            let outcome = Runtime::new(p)
                .run(|comm| reduce_all(comm, &Counts::new(16), &counts_chunks[comm.rank()]));
            let expected = gv_core::seq::reduce(&Counts::new(16), &particles);
            assert_eq!(outcome.results, vec![expected; p], "p={p}");

            let topk_chunks: Vec<Vec<(f64, u64)>> = chunk_ranges(samples.len(), p)
                .map(|r| samples[r].to_vec())
                .collect();
            let outcome = Runtime::new(p).run(|comm| {
                let op = TopBottomK::<f64, u64>::new(10);
                reduce_all(comm, &op, Staged(topk_chunks[comm.rank()].iter().copied()))
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
