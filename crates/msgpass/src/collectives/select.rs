//! Cost-driven schedule selection, and the one place each collective
//! family turns a selection into a schedule.
//!
//! The runtime keeps a few general schedules — the binomial tree
//! (`tree.rs`), recursive doubling, the circulant reduce-scatter +
//! allgather, and for scans recursive doubling, the binomial sweep and
//! the segmented chain — with different α–β profiles and correctness
//! preconditions ([`AllreduceAlgorithm`], [`ScanAlgorithm`]). The entry
//! points here pick the cheapest *eligible* one per call from the cost
//! model, the call's wire size and the operator's declared properties —
//! the paper's point that the operator abstraction is what lets the
//! runtime choose better combine schedules. For allreduce,
//! commutativity and splittability discriminate ([`Comm::allreduce`]
//! never splits; [`Comm::allreduce_splittable`] admits reduce-scatter +
//! allgather for a commutative operator); for scans, which all combine in
//! rank order, splittability alone ([`Comm::scan_exclusive_splittable`]
//! admits the chain).
//!
//! A caller that must run one schedule — an ablation, a test, or
//! `gv_rsmpi`, which selects for a counting state before it accumulates —
//! names it to a `_by` form, which skips the pricing. Its plan may say
//! how states cross, `By(plan, crossing)`: by value, or as a counting
//! state's units, views and returned buffers ([`Counted`](super::Counted)),
//! which reaches the schedules that are one body generic over it
//! (`exchange.rs`).
//!
//! A request ([`Comm::iallreduce`], [`Comm::iallreduce_by`]) registers its
//! schedule with the rank's progress engine and is priced by the work it
//! leaves on each rank, not by its critical path, since requests in
//! flight overlap theirs. Commutativity alone picks it: a commutative
//! request runs the tree rooted at its call sequence mod p, spreading its
//! `p − 1` clones and combines over the ranks, and a non-commutative one
//! recursive doubling. On one rank the tree is an empty schedule too, and
//! the smaller box (`a_requests_schedule_stays_small`). A request lends
//! nothing: a loan waits for its partner, which a request must not do
//! inside a poll.
//!
//! Selection needs a byte count every rank computes alike. The exclusive
//! scans and `gv_rsmpi`'s splittable reduction price the operator's
//! identity. [`Comm::allreduce`], [`Comm::allreduce_splittable`],
//! [`Comm::scan_inclusive`] and [`Comm::scan_both`] price the calling
//! rank's own state, which agrees only while all ranks pass equal-shaped
//! states: a 1 MiB state on one rank and a few bytes on the others split
//! the ranks of a `scan_inclusive` or `scan_both` between recursive
//! doubling and the binomial sweep at p = 8 and 16, and the run fails
//! typed, "peer ranks exited without sending". A caller whose states may
//! straddle a crossover prices a size every rank computes alike and names
//! the schedule through a `_by` form.

use super::allreduce_rd::allreduce_rd;
use super::exchange::{By, ByValue, Crossing, Exchange};
use super::launch::{Blocking, Mode, Nonblocking};
use super::reduce_scatter::allreduce_rsag;
use super::scan::scan_rd;
use super::scan_binomial::scan_binomial;
use super::scan_chain::scan_chain;
use super::tree::{tree_allreduce, whole};
use crate::comm::Comm;
use crate::cost::{AllreduceAlgorithm, ScanAlgorithm};
use crate::request::Request;
use crate::stats::CallKind;

/// A splittable state's `(split, unsplit)`, borrowed: `split(state,
/// parts)` returns exactly `parts` segments and `unsplit` inverts it.
pub type Segmentation<'a, T> = (&'a dyn Fn(T, usize) -> Vec<T>, &'a dyn Fn(Vec<T>) -> T);

impl Comm {
    /// The allreduce family's constructor: records the schedule and
    /// launches it. A `request` roots the tree at its call's sequence
    /// number mod p instead of rank 0, which only a commutative operator
    /// allows, and lends nothing. `crossing` reaches the schedules that
    /// are generic over it; the reduce-scatter carries whole states.
    pub(crate) fn start_allreduce<'a, M: Mode<'a>, T: Clone + Send + 'static>(
        &self,
        By(algo, crossing): By<AllreduceAlgorithm, impl Crossing<T> + 'a>,
        request: bool,
        value: T,
        segmentation: (
            impl FnOnce(T, usize) -> Vec<T> + 'a,
            impl FnOnce(Vec<T>) -> T + 'a,
        ),
        bytes_of: impl Fn(&T) -> usize + 'a,
        combine: impl FnMut(T, T) -> T + 'a,
    ) -> M::Handle<T> {
        self.counters().record_allreduce_algorithm(algo);
        match algo {
            AllreduceAlgorithm::RecursiveDoubling => {
                let x = crossing.exchange(combine, !request);
                self.launch::<M, _, _>(CallKind::Allreduce, |comm, seq| {
                    allreduce_rd(comm, value, seq, bytes_of, x)
                })
            }
            AllreduceAlgorithm::ReduceScatterAllgather => self
                .launch::<M, _, _>(CallKind::Allreduce, |comm, seq| {
                    allreduce_rsag(comm, value, seq, segmentation, bytes_of, combine)
                }),
            AllreduceAlgorithm::ReduceBroadcast => {
                let x = crossing.exchange(combine, false);
                self.launch::<M, _, _>(CallKind::Allreduce, |comm, seq| {
                    let root = if request {
                        (seq % comm.size() as u64) as usize
                    } else {
                        0
                    };
                    tree_allreduce(comm, root, value, seq, bytes_of, x)
                })
            }
        }
    }

    /// Allreduce by the schedule `plan` names, bypassing the selector:
    /// an algorithm, or `By(algorithm, crossing)` to say how states cross
    /// (a counting state's [`Counted`](super::Counted)). `(split,
    /// unsplit)` is the state's segmentation — [`whole`] for a state that
    /// cannot be split, which rules out reduce-scatter + allgather.
    /// Reduce-scatter + allgather also needs a commutative operator; every
    /// other schedule combines in rank order. The call records the
    /// algorithm counter, messages, bytes and modeled clock a selected run
    /// of the same schedule records.
    pub fn allreduce_by<T: Clone + Send + 'static, X: Crossing<T>>(
        &self,
        plan: impl Into<By<AllreduceAlgorithm, X>>,
        value: T,
        segmentation: (impl FnOnce(T, usize) -> Vec<T>, impl FnOnce(Vec<T>) -> T),
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = plan.into();
        self.start_allreduce::<Blocking, _>(plan, false, value, segmentation, bytes_of, combine)
    }

    /// Allreduce with cost-driven schedule selection for whole (scalar,
    /// unsplittable) states. `commutative` is the operator's flag; every
    /// whole-state schedule is rank-order safe, so a non-commutative
    /// operator only restricts the combine order, never correctness.
    pub fn allreduce<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let algo = AllreduceAlgorithm::select(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            commutative,
            false,
        );
        self.allreduce_by(algo, value, whole(), bytes_of, combine)
    }

    /// Non-blocking [`allreduce`](Self::allreduce): the schedule is
    /// registered with the rank's progress engine and the call returns a
    /// [`Request`] immediately. `commutative` alone picks the schedule
    /// (see the module docs).
    pub fn iallreduce<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        bytes_of: impl Fn(&T) -> usize + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        self.iallreduce_by(ByValue, value, commutative, bytes_of, combine)
    }

    /// [`iallreduce`](Self::iallreduce) with its states crossing by
    /// `crossing` (a counting state's [`Counted`](super::Counted)), on the
    /// schedule `commutative` picks. Its exchange lends nothing.
    pub fn iallreduce_by<T: Clone + Send + 'static>(
        &self,
        crossing: impl Crossing<T> + 'static,
        value: T,
        commutative: bool,
        bytes_of: impl Fn(&T) -> usize + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        let algo = match commutative {
            true => AllreduceAlgorithm::ReduceBroadcast,
            false => AllreduceAlgorithm::RecursiveDoubling,
        };
        let plan = By(algo, crossing);
        self.start_allreduce::<Nonblocking, _>(plan, true, value, whole(), bytes_of, combine)
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
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let algo = AllreduceAlgorithm::select(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            commutative,
            true,
        );
        self.allreduce_by(algo, value, (split, unsplit), bytes_of, combine)
    }

    /// The scan family's one constructor, driven on the caller's stack.
    /// `plan` is `(algorithm, chain segment count)` and how states cross
    /// in recursive doubling; the binomial sweep and the chain carry whole
    /// states, a counting crossing's units counted in. `(exclusive,
    /// inclusive)` says which halves the caller consumes, which gates only
    /// local clones and combines, never the message schedule. The result
    /// is `(exclusive, inclusive)`, the exclusive half `None` on rank 0
    /// and either half `None` when not asked for. A dedicated exclusive
    /// scan is recorded as [`CallKind::Exscan`], everything else as
    /// [`CallKind::Scan`] (the `scan_both` convention).
    pub(crate) fn start_scan<T: Clone + Send + 'static>(
        &self,
        By((algo, segments), crossing): By<(ScanAlgorithm, usize), impl Crossing<T>>,
        value: T,
        segmentation: (impl FnOnce(T, usize) -> Vec<T>, impl Fn(Vec<T>) -> T),
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
        (exclusive, inclusive): (bool, bool),
    ) -> (Option<T>, Option<T>) {
        self.counters().record_scan_algorithm(algo);
        let kind = if inclusive {
            CallKind::Scan
        } else {
            CallKind::Exscan
        };
        debug_assert!(exclusive || inclusive);
        if algo == ScanAlgorithm::RecursiveDoubling {
            let x = crossing.exchange(combine, false);
            let s = x.partials(value, (exclusive, inclusive));
            return self
                .launch::<Blocking, _, _>(kind, |comm, seq| scan_rd(comm, s, seq, bytes_of));
        }
        let value = crossing.into_whole(self, value);
        let (ex, inc) = match algo {
            ScanAlgorithm::Binomial => self.launch::<Blocking, _, _>(kind, |comm, seq| {
                scan_binomial(comm, value, seq, bytes_of, combine)
            }),
            _ => self.launch::<Blocking, _, _>(kind, |comm, seq| {
                scan_chain(
                    comm,
                    value,
                    segments,
                    segmentation,
                    seq,
                    bytes_of,
                    combine,
                    exclusive,
                )
            }),
        };
        (ex, Some(inc))
    }

    /// Inclusive scan with cost-driven schedule selection: rank `r`
    /// receives `v₀ ⊕ v₁ ⊕ ⋯ ⊕ v_r`. Priced at this rank's own state (see
    /// the module docs).
    pub fn scan_inclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let plan = ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&value), false);
        let (_, inc) = self.start_scan(
            plan.into(),
            value,
            whole(),
            bytes_of,
            combine,
            (false, true),
        );
        inc.expect("inclusive result was requested")
    }

    /// Exclusive scan with cost-driven schedule selection: rank `r`
    /// receives `v₀ ⊕ ⋯ ⊕ v_{r−1}`; rank 0 receives `ident()`. The
    /// selector prices the identity, the one state every rank holds alike
    /// (see the module docs), so `ident` runs on every rank.
    pub fn scan_exclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        ident: impl FnOnce() -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let identity = ident();
        let plan =
            ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&identity), false);
        let (ex, _) = self.start_scan(
            plan.into(),
            value,
            whole(),
            bytes_of,
            combine,
            (true, false),
        );
        ex.unwrap_or(identity)
    }

    /// Both scans at once (one communication schedule): `(exclusive,
    /// inclusive)`, with `None` as rank 0's exclusive part. Priced at this
    /// rank's own state (see the module docs).
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
        self.scan_both_by(plan, value, whole(), bytes_of, combine)
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
        let plan = plan.into();
        let (ex, inc) = self.start_scan(plan, value, segmentation, bytes_of, combine, (true, true));
        (ex, inc.expect("inclusive result was requested"))
    }

    /// Exclusive scan over a splittable state: like
    /// [`scan_exclusive`](Self::scan_exclusive), but the selector may
    /// additionally pick the segmented chain. `split`/`unsplit` must
    /// satisfy the `SplittableState` laws from `gv-core` and only run
    /// when the chain wins; rank 0 receives `ident()`. Priced at the
    /// identity, as [`scan_exclusive`](Self::scan_exclusive) is.
    pub fn scan_exclusive_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        ident: impl FnOnce() -> T,
        split: impl FnOnce(T, usize) -> Vec<T>,
        unsplit: impl Fn(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let identity = ident();
        let plan =
            ScanAlgorithm::select(&self.cost_model(), self.size(), bytes_of(&identity), true);
        let segmentation = (split, unsplit);
        let need = (true, false);
        let (ex, _) = self.start_scan(plan.into(), value, segmentation, bytes_of, combine, need);
        ex.unwrap_or(identity)
    }

    /// Exclusive scan by the schedule `plan` names, bypassing the
    /// selector, for a caller that priced the call itself at a size every
    /// rank computes alike: `(algorithm, chain segment count)`, as
    /// [`scan_both_by`](Self::scan_both_by) takes it, or `By(that,
    /// crossing)` to say how states cross in recursive doubling (a
    /// counting state's [`Counted`](super::Counted), whose `value` is an
    /// identity where it holds units). Only rank 0, which returns it,
    /// runs `ident`. Recorded as a [`scan_exclusive`](Self::scan_exclusive)
    /// of the same plan.
    pub fn scan_exclusive_by<T: Clone + Send + 'static, X: Crossing<T>>(
        &self,
        plan: impl Into<By<(ScanAlgorithm, usize), X>>,
        value: T,
        ident: impl FnOnce() -> T,
        segmentation: (impl FnOnce(T, usize) -> Vec<T>, impl Fn(Vec<T>) -> T),
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let need = (true, false);
        let (ex, _) = self.start_scan(plan.into(), value, segmentation, bytes_of, combine, need);
        ex.unwrap_or_else(ident)
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
    fn iallreduce_picks_its_schedule_by_commutativity_alone() {
        // At every p, one rank included, a commutative request runs the
        // tree and a non-commutative one recursive doubling, as the
        // blocking call does; either way one Allreduce call per rank and
        // the blocking call's result.
        for (p, commutative) in [(1, true), (1, false), (8, true), (8, false)] {
            let blocking = Runtime::new(p).run(move |comm| {
                comm.allreduce(comm.rank() as u64, commutative, |_| 8, |a, b| a + b)
            });
            let nonblocking = Runtime::new(p).run(move |comm| {
                let mut req = comm.iallreduce(comm.rank() as u64, commutative, |_| 8, |a, b| a + b);
                req.wait().unwrap()
            });
            assert_eq!(blocking.results, nonblocking.results);
            assert_eq!(nonblocking.stats.calls(CallKind::Allreduce), p as u64);
            let (tree, rd) = if commutative { (p, 0) } else { (0, p) };
            let calls = |algo| nonblocking.stats.allreduce_algorithm_calls(algo) as usize;
            assert_eq!(calls(AllreduceAlgorithm::ReduceBroadcast), tree, "p={p}");
            assert_eq!(calls(AllreduceAlgorithm::RecursiveDoubling), rd, "p={p}");
        }
    }

    /// What a request boxes: for a `u64` sum, the by-value tree and
    /// recursive doubling; for a counting `Vec<u64>` state shared through
    /// an `Rc`, as `gv_rsmpi::ireduce_all` shares it, the counted tree.
    /// The tree's future keeps no second copy of its arguments (a plain
    /// `fn` returning an `async` block), and its up- and down-sweep share
    /// the storage of one awaited future. The by-value tree is no larger
    /// than recursive doubling's, so a commutative request runs the tree
    /// at every rank count, one rank included. The bounds are the sizes
    /// each schedule had as a body of its own.
    #[test]
    fn a_requests_schedule_stays_small() {
        use crate::collectives::{ByValue, Counted, Crossing};
        use gv_core::op::ReduceScanOp;
        use gv_core::ops::counts::Counts;
        use std::rc::Rc;

        Runtime::new(1).run(|comm| {
            let add = |a: u64, b: u64| a + b;
            let x = ByValue.exchange(add, false);
            let tree = super::tree_allreduce(comm.clone_handle(), 0, 1, 0, |_| 8, x);
            let x = ByValue.exchange(add, false);
            let rd = super::allreduce_rd(comm.clone_handle(), 1, 0, |_| 8, x);
            let op = Rc::new(Counts::new(8));
            let sized = Rc::clone(&op);
            let bytes_of = move |s: &Vec<u64>| sized.wire_size(s);
            let x = Counted::new(op, None).exchange(|a, _| a, false);
            let counted = super::tree_allreduce(comm.clone_handle(), 0, vec![0; 8], 0, bytes_of, x);
            let (tree, rd) = (size_of_val(&tree), size_of_val(&rd));
            let counted = size_of_val(&counted);
            assert!(tree <= 208, "the tree's future grew to {tree} bytes");
            assert!(rd <= 232, "recursive doubling's future grew to {rd} bytes");
            assert!(
                counted <= 360,
                "the counted tree's future grew to {counted} bytes"
            );
        });
    }

    #[test]
    fn splittable_selector_runs_large_non_commutative_states_whole() {
        // 256 KiB, declared non-commutative: reduce-scatter + allgather is
        // ineligible, so the state crosses whole by recursive doubling, at
        // p = 8 as at p = 2.
        for (p, elems) in [(8usize, 32 << 10), (2, 8 << 10)] {
            let outcome = Runtime::new(p).run(move |comm| {
                comm.allreduce_splittable(
                    vec![comm.rank() as u64 + 1; elems],
                    false,
                    gv_core::split::split_vec_segments,
                    gv_core::split::unsplit_vec_segments,
                    wire,
                    add,
                )
            });
            let total = (p * (p + 1) / 2) as u64;
            assert_eq!(outcome.results, vec![vec![total; elems]; p], "p={p}");
            let rd = AllreduceAlgorithm::RecursiveDoubling;
            assert_eq!(outcome.stats.allreduce_algorithm_calls(rd), p as u64);
        }
    }
}
