//! Cost-driven schedule selection, and the one place each collective
//! family turns a selection into a schedule.
//!
//! The runtime keeps a few general schedules — the segmented binomial
//! tree (`tree.rs`), recursive doubling, the circulant reduce-scatter +
//! allgather, and for scans recursive doubling, the binomial sweep and
//! the segmented chain — with different α–β profiles and different
//! correctness preconditions (see [`AllreduceAlgorithm`],
//! [`ScanAlgorithm`], [`BcastAlgorithm`]). The entry points here pick
//! the cheapest *eligible* one per call from the communicator's cost
//! model, the call's wire size, and the operator's declared properties —
//! the paper's point that the operator abstraction is what lets the
//! runtime choose better combine schedules.
//!
//! For allreduce the discriminating declarations are commutativity and
//! splittability: [`Comm::allreduce`] is the whole-state entry point
//! (nothing to split, so recursive doubling it is);
//! [`Comm::allreduce_splittable`] is the full selector, where
//! reduce-scatter + allgather additionally needs a commutative operator
//! but the segmented tree (combining in strict rank order) does not.
//!
//! For broadcast and rooted reduce the schedule is always the tree and
//! the selection is its segment count: `S = 1` unless the state is
//! splittable and the priced `S > 1` estimate is strictly lower
//! ([`BcastAlgorithm::select_segments`]).
//!
//! For scans every candidate schedule combines in rank order, so only
//! *splittability* discriminates: [`Comm::scan_inclusive`] /
//! [`Comm::scan_exclusive`] / [`Comm::scan_both`] choose between
//! recursive doubling and the binomial sweep, and the `_splittable`
//! variants additionally admit the segmented chain.
//!
//! A caller that must run one schedule — an ablation measuring each, a
//! test pinning one — passes the plan the selector would have produced:
//! [`Comm::allreduce_by`], [`Comm::iallreduce_by`] and
//! [`Comm::scan_both_by`] take `(algorithm, segment count)` and skip the
//! pricing, so which schedule runs is decided here and nowhere else.
//! (`bcast_pipelined` and `reduce_pipelined` in `tree.rs` are the tree's
//! forced forms: there the plan is only the segment count.)
//!
//! Every schedule is a resumable state machine, so each entry point has
//! a non-blocking twin ([`Comm::iallreduce`], [`Comm::iscan_inclusive`],
//! …) that differs only in the launch [`Mode`]: the four `start_*`
//! family constructors below are generic over it, and every entry point
//! in `collectives/` — selector-routed or forced — goes through them.
//!
//! Selection uses this rank's local `bytes_of(&value)` as the wire size.
//! Under the SPMD convention that all ranks pass equal-shaped states
//! this is uniform; states whose wire size varies per rank (e.g. short
//! strings) sit far below any crossover, where every model lands on the
//! same latency-optimal default.

use super::allreduce_rd::AllreduceRdSchedule;
use super::launch::{Blocking, Mode, Nonblocking};
use super::reduce_scatter::AllreduceRsagSchedule;
use super::scan::ScanRdSchedule;
use super::scan_binomial::ScanBinomialSchedule;
use super::scan_chain::ScanChainSchedule;
use super::tree::{whole, TreeAllreduce, TreeBcast, TreeReduce};
use crate::comm::Comm;
use crate::cost::{AllreduceAlgorithm, BcastAlgorithm, ScanAlgorithm};
use crate::request::{Map, Request};
use crate::stats::CallKind;

/// A scan schedule's normalized output: `(exclusive, inclusive)`, the
/// exclusive half `None` on rank 0 and either half `None` when unwanted.
type ScanHalves<T> = (Option<T>, Option<T>);

/// What a scan entry point consumes: which halves (this gates only local
/// clones and combines, never the message schedule) and how the
/// normalized pair becomes the entry point's return value.
pub(crate) struct ScanShape<F> {
    exclusive: bool,
    inclusive: bool,
    finish: F,
}

pub(crate) fn inclusive<T>() -> ScanShape<impl FnOnce(ScanHalves<T>) -> T> {
    let finish = |(_, inc): ScanHalves<T>| inc.expect("inclusive result was requested");
    ScanShape {
        exclusive: false,
        inclusive: true,
        finish,
    }
}

/// Rank 0 has no exclusive prefix and receives `ident()`.
pub(crate) fn exclusive<T>(
    ident: impl FnOnce() -> T,
) -> ScanShape<impl FnOnce(ScanHalves<T>) -> T> {
    let finish = |(ex, _): ScanHalves<T>| ex.unwrap_or_else(ident);
    ScanShape {
        exclusive: true,
        inclusive: false,
        finish,
    }
}

pub(crate) fn both<T>() -> ScanShape<impl FnOnce(ScanHalves<T>) -> (Option<T>, T)> {
    let finish = |(ex, inc): ScanHalves<T>| (ex, inc.expect("inclusive result was requested"));
    ScanShape {
        exclusive: true,
        inclusive: true,
        finish,
    }
}

impl Comm {
    /// The allreduce family's one constructor: records the schedule and
    /// launches it. `plan` is `(algorithm, tree segment count)`; the
    /// segment count only matters to the tree arms (reduce+bcast *is*
    /// the tree at `S = 1`).
    pub(crate) fn start_allreduce<'a, M: Mode<'a>, T: Clone + Send + 'static>(
        &self,
        (algo, segments): (AllreduceAlgorithm, usize),
        value: T,
        (split, unsplit): (
            impl FnOnce(T, usize) -> Vec<T>,
            impl FnOnce(Vec<T>) -> T + 'a,
        ),
        bytes_of: impl Fn(&T) -> usize + Clone + 'a,
        combine: impl FnMut(T, T) -> T + 'a,
    ) -> M::Handle<T> {
        self.counters().record_allreduce_algorithm(algo);
        match algo {
            AllreduceAlgorithm::RecursiveDoubling => self
                .launch::<M, _>(CallKind::Allreduce, |comm, salt| {
                    AllreduceRdSchedule::new(comm, value, salt, bytes_of, combine)
                }),
            AllreduceAlgorithm::ReduceScatterAllgather => {
                self.launch::<M, _>(CallKind::Allreduce, |comm, salt| {
                    AllreduceRsagSchedule::new(comm, value, salt, split, unsplit, bytes_of, combine)
                })
            }
            AllreduceAlgorithm::ReduceBroadcast | AllreduceAlgorithm::PipelinedTree => self
                .launch::<M, _>(CallKind::Allreduce, |comm, salt| {
                    TreeAllreduce::new(
                        comm, value, segments, split, salt, bytes_of, combine, unsplit,
                    )
                }),
        }
    }

    /// Allreduce by the schedule `plan` names, bypassing the selector:
    /// `(algorithm, tree segment count)`, the count read only by
    /// [`AllreduceAlgorithm::PipelinedTree`] (every other plan is
    /// `(algorithm, 1)`). `(split, unsplit)` is the state's segmentation —
    /// [`whole`] for a state that cannot be split, which rules out
    /// reduce-scatter + allgather and a tree of more than one segment.
    /// Reduce-scatter + allgather also needs a commutative operator;
    /// every other schedule combines in rank order. The call records the
    /// algorithm counter, messages, bytes and modeled clock a selected
    /// run of the same plan records.
    pub fn allreduce_by<T: Clone + Send + 'static>(
        &self,
        plan: (AllreduceAlgorithm, usize),
        value: T,
        segmentation: (impl FnOnce(T, usize) -> Vec<T>, impl FnOnce(Vec<T>) -> T),
        bytes_of: impl Fn(&T) -> usize + Clone,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.start_allreduce::<Blocking, _>(plan, value, segmentation, bytes_of, combine)
    }

    /// Non-blocking [`allreduce_by`](Self::allreduce_by).
    pub fn iallreduce_by<T: Clone + Send + 'static>(
        &self,
        plan: (AllreduceAlgorithm, usize),
        value: T,
        segmentation: (
            impl FnOnce(T, usize) -> Vec<T>,
            impl FnOnce(Vec<T>) -> T + 'static,
        ),
        bytes_of: impl Fn(&T) -> usize + Clone + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        self.start_allreduce::<Nonblocking, _>(plan, value, segmentation, bytes_of, combine)
    }

    /// Allreduce with cost-driven schedule selection for whole (scalar,
    /// unsplittable) states. `commutative` is the operator's flag; every
    /// whole-state schedule is rank-order safe, so a non-commutative
    /// operator only restricts the combine order, never correctness.
    pub fn allreduce<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        bytes_of: impl Fn(&T) -> usize + Clone,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = AllreduceAlgorithm::select(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            commutative,
            false,
        );
        self.start_allreduce::<Blocking, _>(plan, value, whole(), bytes_of, combine)
    }

    /// Non-blocking [`allreduce`](Self::allreduce): the same cost-driven
    /// selection, but the chosen schedule is registered with the rank's
    /// progress engine and the call returns a [`Request`] immediately.
    pub fn iallreduce<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        bytes_of: impl Fn(&T) -> usize + Clone + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        let plan = AllreduceAlgorithm::select(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            commutative,
            false,
        );
        self.start_allreduce::<Nonblocking, _>(plan, value, whole(), bytes_of, combine)
    }

    /// Allreduce with the full schedule selection for states the caller
    /// can split into segments. `split(state, parts)` must return exactly
    /// `parts` segments and `unsplit` must invert it (the
    /// `SplittableState` laws in `gv-core`); both run locally.
    pub fn allreduce_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl FnOnce(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize + Clone,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = AllreduceAlgorithm::select(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            commutative,
            true,
        );
        self.start_allreduce::<Blocking, _>(plan, value, (split, unsplit), bytes_of, combine)
    }

    /// Non-blocking [`allreduce_splittable`](Self::allreduce_splittable).
    pub fn iallreduce_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl FnOnce(Vec<T>) -> T + 'static,
        bytes_of: impl Fn(&T) -> usize + Clone + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        let plan = AllreduceAlgorithm::select(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            commutative,
            true,
        );
        self.start_allreduce::<Nonblocking, _>(plan, value, (split, unsplit), bytes_of, combine)
    }

    /// The broadcast family's one constructor. `S = 1` is recorded as
    /// [`BcastAlgorithm::Binomial`], anything above as
    /// [`BcastAlgorithm::Pipelined`].
    pub(crate) fn start_bcast<'a, M: Mode<'a>, T: Clone + Send + 'static>(
        &self,
        segments: usize,
        root: usize,
        value: Option<T>,
        (split, unsplit): (
            impl FnOnce(T, usize) -> Vec<T>,
            impl FnOnce(Vec<T>) -> T + 'a,
        ),
        bytes_of: impl Fn(&T) -> usize + 'a,
    ) -> M::Handle<T> {
        self.counters().record_bcast_algorithm(if segments > 1 {
            BcastAlgorithm::Pipelined
        } else {
            BcastAlgorithm::Binomial
        });
        self.launch::<M, _>(CallKind::Bcast, |comm, salt| {
            TreeBcast::new(comm, root, value, segments, split, salt, bytes_of, unsplit)
        })
    }

    /// Broadcast with cost-driven segment selection for splittable
    /// states. `wire_bytes` is passed explicitly because only the root
    /// owns the value — every rank must feed the selector the same size
    /// (the SPMD convention), so the caller supplies it rather than this
    /// rank measuring a value it may not have.
    pub fn bcast_splittable<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        wire_bytes: usize,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl FnOnce(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
    ) -> T {
        let segments =
            BcastAlgorithm::select_segments(&self.cost_model(), self.size(), wire_bytes, true);
        self.start_bcast::<Blocking, _>(segments, root, value, (split, unsplit), bytes_of)
    }

    /// The rooted-reduce family's one constructor.
    pub(crate) fn start_reduce<'a, M: Mode<'a>, T: Send + 'static>(
        &self,
        segments: usize,
        root: usize,
        value: T,
        (split, unsplit): (
            impl FnOnce(T, usize) -> Vec<T>,
            impl FnOnce(Vec<T>) -> T + 'a,
        ),
        bytes_of: impl Fn(&T) -> usize + 'a,
        combine: impl FnMut(T, T) -> T + 'a,
    ) -> M::Handle<Option<T>> {
        self.launch::<M, _>(CallKind::Reduce, |comm, salt| {
            TreeReduce::new(
                comm, root, value, segments, split, salt, bytes_of, combine, unsplit,
            )
        })
    }

    /// Rooted reduce with cost-driven segment selection for splittable
    /// states. Returns `Some(result)` at the root, `None` elsewhere. The
    /// tree combines in rank order at every `S`, so — as for scans —
    /// only splittability discriminates, never commutativity.
    pub fn reduce_splittable<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl FnOnce(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        let segments = BcastAlgorithm::select_segments(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            true,
        );
        self.start_reduce::<Blocking, _>(segments, root, value, (split, unsplit), bytes_of, combine)
    }

    /// The scan family's one constructor. `plan` is `(algorithm, chain
    /// segment count)`. A dedicated exclusive scan is recorded as
    /// [`CallKind::Exscan`], everything else as [`CallKind::Scan`] (the
    /// `scan_both` convention).
    pub(crate) fn start_scan<'a, M: Mode<'a>, T: Clone + Send + 'static, R: 'a>(
        &self,
        (algo, segments): (ScanAlgorithm, usize),
        value: T,
        (split, unsplit): (impl FnOnce(T, usize) -> Vec<T>, impl Fn(Vec<T>) -> T + 'a),
        bytes_of: impl Fn(&T) -> usize + 'a,
        combine: impl FnMut(T, T) -> T + 'a,
        shape: ScanShape<impl FnOnce(ScanHalves<T>) -> R + 'a>,
    ) -> M::Handle<R> {
        self.counters().record_scan_algorithm(algo);
        let ScanShape {
            exclusive,
            inclusive,
            finish,
        } = shape;
        let kind = if inclusive {
            CallKind::Scan
        } else {
            CallKind::Exscan
        };
        match algo {
            ScanAlgorithm::RecursiveDoubling => self.launch::<M, _>(kind, |comm, salt| {
                let schedule =
                    ScanRdSchedule::new(comm, value, salt, bytes_of, combine, exclusive, inclusive);
                Map::new(schedule, finish)
            }),
            ScanAlgorithm::Binomial => self.launch::<M, _>(kind, |comm, salt| {
                let schedule = ScanBinomialSchedule::new(comm, value, salt, bytes_of, combine);
                Map::new(schedule, |(ex, inc)| finish((ex, Some(inc))))
            }),
            ScanAlgorithm::PipelinedChain => self.launch::<M, _>(kind, |comm, salt| {
                let schedule = ScanChainSchedule::new(
                    comm, value, segments, split, salt, bytes_of, combine, unsplit, exclusive,
                );
                Map::new(schedule, |(ex, inc)| finish((ex, Some(inc))))
            }),
        }
    }

    /// Inclusive scan with cost-driven schedule selection: rank `r`
    /// receives `v₀ ⊕ v₁ ⊕ ⋯ ⊕ v_r`.
    pub fn scan_inclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), false);
        self.start_scan::<Blocking, _, _>(plan, value, whole(), bytes_of, combine, inclusive())
    }

    /// Non-blocking [`scan_inclusive`](Self::scan_inclusive).
    pub fn iscan_inclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        bytes_of: impl Fn(&T) -> usize + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), false);
        self.start_scan::<Nonblocking, _, _>(plan, value, whole(), bytes_of, combine, inclusive())
    }

    /// Exclusive scan with cost-driven schedule selection: rank `r`
    /// receives `v₀ ⊕ ⋯ ⊕ v_{r−1}`; rank 0 receives `ident()`.
    pub fn scan_exclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        ident: impl FnOnce() -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), false);
        self.start_scan::<Blocking, _, _>(plan, value, whole(), bytes_of, combine, exclusive(ident))
    }

    /// Non-blocking [`scan_exclusive`](Self::scan_exclusive); `ident`
    /// runs when the request resolves on rank 0.
    pub fn iscan_exclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        ident: impl FnOnce() -> T + 'static,
        bytes_of: impl Fn(&T) -> usize + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), false);
        self.start_scan::<Nonblocking, _, _>(
            plan,
            value,
            whole(),
            bytes_of,
            combine,
            exclusive(ident),
        )
    }

    /// Both scans at once (one communication schedule): `(exclusive,
    /// inclusive)`, with `None` as rank 0's exclusive part.
    ///
    /// **Accounting convention**: one schedule, one call — recorded as a
    /// single [`CallKind::Scan`] (the inclusive result is the primary;
    /// the exclusive half is a free by-product of the same rounds, as an
    /// MPI trace of the underlying traffic would show one collective).
    /// `CallKind::Exscan` counts only dedicated
    /// [`scan_exclusive`](Self::scan_exclusive) calls. The same holds
    /// for the per-schedule counters: one schedule, one
    /// [`ScanAlgorithm`] record.
    pub fn scan_both<T: Clone + Send + 'static>(
        &self,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> (Option<T>, T) {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), false);
        self.start_scan::<Blocking, _, _>(plan, value, whole(), bytes_of, combine, both())
    }

    /// Both scans by the schedule `plan` names, bypassing the selector:
    /// `(algorithm, chain segment count)`, the count read only by
    /// [`ScanAlgorithm::PipelinedChain`]. `(split, unsplit)` is the
    /// state's segmentation, [`whole`] for a state that cannot be split
    /// (the chain then runs at one segment: the linear scan). Every scan
    /// schedule combines in rank order. Recorded under the
    /// [`scan_both`](Self::scan_both) accounting convention, with the
    /// counters, messages, bytes and modeled clock of a selected run of
    /// the same plan.
    pub fn scan_both_by<T: Clone + Send + 'static>(
        &self,
        plan: (ScanAlgorithm, usize),
        value: T,
        segmentation: (impl FnOnce(T, usize) -> Vec<T>, impl Fn(Vec<T>) -> T),
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> (Option<T>, T) {
        self.start_scan::<Blocking, _, _>(plan, value, segmentation, bytes_of, combine, both())
    }

    /// Inclusive scan over a splittable state: like
    /// [`scan_inclusive`](Self::scan_inclusive), but the selector may
    /// additionally pick the segmented chain. `split`/`unsplit` must
    /// satisfy the `SplittableState` laws from `gv-core` and only run
    /// when the chain wins.
    pub fn scan_inclusive_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl Fn(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), true);
        self.start_scan::<Blocking, _, _>(
            plan,
            value,
            (split, unsplit),
            bytes_of,
            combine,
            inclusive(),
        )
    }

    /// Exclusive scan over a splittable state; rank 0 receives
    /// `ident()`.
    pub fn scan_exclusive_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        ident: impl FnOnce() -> T,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl Fn(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), true);
        self.start_scan::<Blocking, _, _>(
            plan,
            value,
            (split, unsplit),
            bytes_of,
            combine,
            exclusive(ident),
        )
    }

    /// Both scans over a splittable state in one schedule, under the
    /// [`scan_both`](Self::scan_both) accounting convention.
    pub fn scan_both_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl Fn(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> (Option<T>, T) {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), true);
        self.start_scan::<Blocking, _, _>(plan, value, (split, unsplit), bytes_of, combine, both())
    }
}

#[cfg(test)]
mod tests {
    use crate::cost::AllreduceAlgorithm;
    use crate::runtime::Runtime;
    use crate::stats::CallKind;

    fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }

    // The collectives take `Fn(&S) -> usize` with `S = Vec<u64>`.
    #[allow(clippy::ptr_arg)]
    fn wire(v: &Vec<u64>) -> usize {
        v.len() * 8
    }

    #[test]
    fn selector_uses_recursive_doubling_for_small_states() {
        let outcome = Runtime::new(8)
            .run(|comm| comm.allreduce(comm.rank() as u64, true, |_| 8, |a, b| a + b));
        assert_eq!(outcome.results, vec![28; 8]);
        assert_eq!(
            outcome
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::RecursiveDoubling),
            8
        );
    }

    #[test]
    fn splittable_selector_uses_ring_for_large_commutative_states() {
        let outcome = Runtime::new(8).run(|comm| {
            let state = vec![comm.rank() as u64; 8 << 10]; // 64 KiB
            comm.allreduce_splittable(
                state,
                true,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            )
        });
        for res in &outcome.results {
            assert_eq!(res, &vec![28u64; 8 << 10]);
        }
        assert_eq!(
            outcome
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::ReduceScatterAllgather),
            8
        );
        assert_eq!(outcome.stats.calls(CallKind::Allreduce), 8);
    }

    #[test]
    fn splittable_selector_falls_back_when_not_commutative() {
        // Declared non-commutative: the circulant reduce-scatter is
        // ineligible at any size. At 8 KiB the segmented tree is eligible
        // but loses to recursive doubling on latency, so the selector
        // falls back to full-state rounds.
        let outcome = Runtime::new(8).run(|comm| {
            let state = vec![comm.rank() as u64; 1 << 10];
            comm.allreduce_splittable(
                state,
                false,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            )
        });
        for res in &outcome.results {
            assert_eq!(res, &vec![28u64; 1 << 10]);
        }
        assert_eq!(
            outcome
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::ReduceScatterAllgather),
            0
        );
        assert_eq!(
            outcome
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::RecursiveDoubling),
            8
        );
    }

    #[test]
    fn every_selected_schedule_matches_the_oracle() {
        for p in 1..=9usize {
            for commutative in [true, false] {
                let outcome = Runtime::new(p).run(move |comm| {
                    comm.allreduce_splittable(
                        vec![comm.rank() as u64 + 1; 64],
                        commutative,
                        gv_core::split::split_vec_segments,
                        gv_core::split::unsplit_vec_segments,
                        wire,
                        add,
                    )
                });
                let total = (p * (p + 1) / 2) as u64;
                for res in outcome.results {
                    assert_eq!(res, vec![total; 64], "p={p} commutative={commutative}");
                }
            }
        }
    }

    #[test]
    fn iallreduce_records_the_same_selection_as_blocking() {
        // Small scalar state: both paths must pick recursive doubling
        // and produce the same stats (one Allreduce call, one RD
        // schedule record per rank).
        let blocking = Runtime::new(8)
            .run(|comm| comm.allreduce(comm.rank() as u64, true, |_| 8, |a, b| a + b));
        let nonblocking = Runtime::new(8).run(|comm| {
            let mut req = comm.iallreduce(comm.rank() as u64, true, |_| 8, |a, b| a + b);
            req.wait().unwrap()
        });
        assert_eq!(blocking.results, nonblocking.results);
        assert_eq!(
            blocking.stats.calls(CallKind::Allreduce),
            nonblocking.stats.calls(CallKind::Allreduce)
        );
        assert_eq!(
            blocking
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::RecursiveDoubling),
            nonblocking
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::RecursiveDoubling),
        );
    }

    #[test]
    fn iallreduce_splittable_uses_ring_for_large_states() {
        let outcome = Runtime::new(8).run(|comm| {
            let state = vec![comm.rank() as u64; 8 << 10]; // 64 KiB
            let mut req = comm.iallreduce_splittable(
                state,
                true,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            );
            req.wait().unwrap()
        });
        for res in &outcome.results {
            assert_eq!(res, &vec![28u64; 8 << 10]);
        }
        assert_eq!(
            outcome
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::ReduceScatterAllgather),
            8
        );
    }

    #[test]
    fn splittable_selector_pipelines_large_non_commutative_states() {
        // 256 KiB, declared non-commutative: RS+AG is ineligible, but the
        // rank-order segmented tree is — and at this size and rank count
        // it beats recursive doubling's full-state rounds, so large
        // non-commutative states pipeline instead of falling back.
        let outcome = Runtime::new(8).run(|comm| {
            let state = vec![comm.rank() as u64; 32 << 10]; // 256 KiB
            comm.allreduce_splittable(
                state,
                false,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            )
        });
        for res in &outcome.results {
            assert_eq!(res, &vec![28u64; 32 << 10]);
        }
        assert_eq!(
            outcome
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::PipelinedTree),
            8
        );
        assert_eq!(outcome.stats.calls(CallKind::Allreduce), 8);
        // At p=2 the tree is a two-hop pipeline and still wins.
        let pair = Runtime::new(2).run(|comm| {
            let state = vec![comm.rank() as u64 + 1; 8 << 10]; // 64 KiB
            comm.allreduce_splittable(
                state,
                false,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            )
        });
        for res in &pair.results {
            assert_eq!(res, &vec![3u64; 8 << 10]);
        }
        assert_eq!(
            pair.stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::PipelinedTree),
            2
        );
    }

    #[test]
    fn iallreduce_splittable_routes_pipelined_tree_like_blocking() {
        let blocking = Runtime::new(8).run(|comm| {
            let state = vec![comm.rank() as u64; 32 << 10];
            comm.allreduce_splittable(
                state,
                false,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            )
        });
        let nonblocking = Runtime::new(8).run(|comm| {
            let state = vec![comm.rank() as u64; 32 << 10];
            let mut req = comm.iallreduce_splittable(
                state,
                false,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            );
            req.wait().unwrap()
        });
        assert_eq!(blocking.results, nonblocking.results);
        assert_eq!(
            blocking
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::PipelinedTree),
            8,
            "256 KiB non-commutative at p=8 must route the pipelined tree"
        );
        assert_eq!(
            blocking
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::PipelinedTree),
            nonblocking
                .stats
                .allreduce_algorithm_calls(AllreduceAlgorithm::PipelinedTree),
        );
        assert_eq!(
            blocking.stats.messages, nonblocking.stats.messages,
            "same schedule must move the same messages"
        );
    }

    #[test]
    fn bcast_selector_pipelines_large_states_and_keeps_binomial_small() {
        use crate::cost::BcastAlgorithm;
        // Large splittable payload: pipelined tree.
        let large = Runtime::new(8).run(|comm| {
            let value = (comm.rank() == 0).then(|| vec![9u64; 32 << 10]);
            comm.bcast_splittable(
                0,
                value,
                (32 << 10) * 8,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
            )
        });
        assert_eq!(large.results, vec![vec![9u64; 32 << 10]; 8]);
        assert_eq!(
            large.stats.bcast_algorithm_calls(BcastAlgorithm::Pipelined),
            8
        );
        assert_eq!(large.stats.calls(CallKind::Bcast), 8);
        // Small payload at the same entry point: the chooser returns
        // S = 1, so the whole-state tree keeps running bit-for-bit.
        let small = Runtime::new(8).run(|comm| {
            let value = (comm.rank() == 0).then(|| vec![9u64; 4]);
            comm.bcast_splittable(
                0,
                value,
                32,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
            )
        });
        assert_eq!(small.results, vec![vec![9u64; 4]; 8]);
        assert_eq!(
            small.stats.bcast_algorithm_calls(BcastAlgorithm::Binomial),
            8
        );
        assert_eq!(
            small.stats.bcast_algorithm_calls(BcastAlgorithm::Pipelined),
            0
        );
    }

    #[test]
    fn plain_bcast_never_routes_to_pipelined_schedules() {
        use crate::cost::BcastAlgorithm;
        // The non-splittable entry points must record Binomial regardless
        // of size: without a split function S > 1 is ineligible, full
        // stop.
        let outcome = Runtime::new(4).run(|comm| {
            let value = (comm.rank() == 2).then(|| vec![1u8; 1 << 20]);
            comm.bcast_vec(2, value)
        });
        assert_eq!(
            outcome
                .stats
                .bcast_algorithm_calls(BcastAlgorithm::Binomial),
            4
        );
        assert_eq!(
            outcome
                .stats
                .bcast_algorithm_calls(BcastAlgorithm::Pipelined),
            0
        );
    }

    #[test]
    fn reduce_splittable_pipelines_large_states() {
        let outcome = Runtime::new(8).run(|comm| {
            let state = vec![comm.rank() as u64; 32 << 10]; // 256 KiB
            comm.reduce_splittable(
                3,
                state,
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            )
        });
        for (r, res) in outcome.results.iter().enumerate() {
            if r == 3 {
                assert_eq!(res, &Some(vec![28u64; 32 << 10]));
            } else {
                assert!(res.is_none(), "non-root rank {r} must get None");
            }
        }
        // (⌈log₂8⌉ + S − 1 stages) · … — the message count pins the route:
        // a monolithic binomial reduce moves exactly p−1 messages, the
        // pipelined tree (p−1)·S with S > 1 at this size.
        assert!(
            outcome.stats.messages > 7,
            "expected pipelined reduce traffic, got {} messages",
            outcome.stats.messages
        );
        // Small states keep the monolithic tree: exactly p−1 messages.
        let small = Runtime::new(8).run(|comm| {
            comm.reduce_splittable(
                0,
                vec![comm.rank() as u64; 4],
                gv_core::split::split_vec_segments,
                gv_core::split::unsplit_vec_segments,
                wire,
                add,
            )
        });
        assert_eq!(small.stats.messages, 7);
    }

    #[test]
    fn iscan_variants_match_blocking_results() {
        for p in [1usize, 2, 5, 8] {
            let outcome = Runtime::new(p).run(|comm| {
                let mut inc_req = comm.iscan_inclusive(
                    format!("<{}>", comm.rank()),
                    |s: &String| s.len(),
                    |a, b| a + &b,
                );
                let mut exc_req = comm.iscan_exclusive(
                    format!("<{}>", comm.rank()),
                    String::new,
                    |s: &String| s.len(),
                    |a, b| a + &b,
                );
                (inc_req.wait().unwrap(), exc_req.wait().unwrap())
            });
            for (r, (inc, exc)) in outcome.results.iter().enumerate() {
                let expected_inc: String = (0..=r).map(|i| format!("<{i}>")).collect();
                let expected_exc: String = (0..r).map(|i| format!("<{i}>")).collect();
                assert_eq!(inc, &expected_inc, "p={p} r={r}");
                assert_eq!(exc, &expected_exc, "p={p} r={r}");
            }
        }
    }
}
