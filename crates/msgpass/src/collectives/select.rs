//! Cost-driven schedule selection, and the one place each collective
//! family turns a selection into a schedule.
//!
//! The runtime keeps a few general schedules — the binomial tree
//! (`tree.rs`), recursive doubling, the circulant reduce-scatter +
//! allgather, and for scans recursive doubling, the binomial sweep and
//! the segmented chain — with different α–β profiles and different
//! correctness preconditions (see [`AllreduceAlgorithm`],
//! [`ScanAlgorithm`]). The entry points here pick the cheapest *eligible*
//! one per call from the communicator's cost model, the call's wire size,
//! and the operator's declared properties — the paper's point that the
//! operator abstraction is what lets the runtime choose better combine
//! schedules.
//!
//! For allreduce the discriminating declarations are commutativity and
//! splittability: [`Comm::allreduce`] is the whole-state entry point
//! (nothing to split, so recursive doubling it is);
//! [`Comm::allreduce_splittable`] is the full selector, where
//! reduce-scatter + allgather is eligible for a commutative operator.
//! [`Comm::allreduce_elementwise`] is either of the two for a counting
//! state: the same selection, but recursive doubling's rounds ship the
//! units a partial counted while they are fewer bytes, and exchange a
//! large state by view (`allreduce_rd.rs`, `counting.rs`).
//! Broadcast and rooted reduce have one schedule each, the tree, and no
//! selection.
//!
//! For scans every candidate schedule combines in rank order, so only
//! *splittability* discriminates: [`Comm::scan_inclusive`] /
//! [`Comm::scan_exclusive`] / [`Comm::scan_both`] choose between
//! recursive doubling and the binomial sweep, and
//! [`Comm::scan_exclusive_splittable`] additionally admits the segmented
//! chain.
//!
//! A caller that must run one schedule — an ablation measuring each, a
//! test pinning one — names what the selector would have produced:
//! [`Comm::allreduce_by`] takes the algorithm and [`Comm::scan_both_by`]
//! takes `(algorithm, chain segment count)`, and both skip the pricing,
//! so which schedule runs is decided here and nowhere else.
//!
//! Every collective here drives its schedule on the caller's stack except
//! [`Comm::iallreduce`], the one non-blocking entry point: it registers
//! an allreduce schedule with the rank's progress engine and returns a
//! [`Request`]. A blocking call is priced by its critical path, a request
//! by the work it leaves on each rank: requests in flight overlap their
//! critical paths, so what a rank pays for is its own clones and
//! combines. A commutative request therefore runs the tree rooted at its
//! call sequence number mod p — `p − 1` clones and combines a call,
//! spread over the ranks by the rotation, where recursive doubling makes
//! each rank clone and combine once a round — and a non-commutative one
//! runs recursive doubling, the blocking call's schedule, since a rotated
//! tree would permute its combine order. The rule reads no state's size
//! and no rank count: on one rank the tree is an empty schedule too, and
//! its future is the smaller box (`a_requests_schedule_stays_small`).
//! [`Comm::iallreduce_elementwise`] runs the same schedules for a
//! counting state, but its tree clones nothing: each child's partial is
//! combined in place, kept, and carries the result back (`tree.rs`), so a
//! rank's own clones drop out of what it pays. A request ships states,
//! never units.
//!
//! Selection uses this rank's local `bytes_of(&value)` as the wire size.
//! Under the SPMD convention that all ranks pass equal-shaped states
//! this is uniform; states whose wire size varies per rank (e.g. short
//! strings) sit far below any crossover, where every model lands on the
//! same latency-optimal default. The exclusive scans price the identity
//! they are given instead, the one state every rank holds alike — except
//! [`Comm::scan_exclusive_elementwise`], whose counting states have the
//! identity's slots on every rank already, and [`Comm::scan_exclusive_by`],
//! whose caller priced the call. Any other caller whose states may
//! straddle a crossover prices a size every rank computes alike and names
//! the schedule through [`Comm::allreduce_by`] (`gv_rsmpi`'s splittable
//! reduction prices its operator's identity).

use gv_core::op::ElementwiseState;

use super::allreduce_rd::{allreduce_rd, allreduce_rd_lent};
use super::counting::Counting;
use super::launch::{Blocking, Mode, Nonblocking};
use super::reduce_scatter::allreduce_rsag;
use super::scan::{scan_rd, scan_rd_counting};
use super::scan_binomial::scan_binomial;
use super::scan_chain::scan_chain;
use super::tree::{tree_allreduce, tree_allreduce_returning, whole};
use crate::comm::Comm;
use crate::cost::{AllreduceAlgorithm, ScanAlgorithm};
use crate::request::Request;
use crate::stats::CallKind;

/// A splittable state's `(split, unsplit)`, borrowed: `split(state,
/// parts)` returns exactly `parts` segments and `unsplit` inverts it.
pub type Segmentation<'a, T> = (&'a dyn Fn(T, usize) -> Vec<T>, &'a dyn Fn(Vec<T>) -> T);

impl Comm {
    /// The allreduce family's constructor: records the schedule and
    /// launches it. `rotate` roots the tree at the call's sequence number
    /// mod p instead of rank 0, which only a commutative operator allows.
    /// The schedules launched elsewhere are those of a counting state:
    /// recursive doubling by pieces
    /// ([`allreduce_elementwise`](Self::allreduce_elementwise)) and the
    /// request tree that returns its children's buffers
    /// ([`iallreduce_elementwise`](Self::iallreduce_elementwise)).
    pub(crate) fn start_allreduce<'a, M: Mode<'a>, T: Clone + Send + 'static>(
        &self,
        algo: AllreduceAlgorithm,
        rotate: bool,
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
            AllreduceAlgorithm::RecursiveDoubling => self
                .launch::<M, _, _>(CallKind::Allreduce, |comm, seq| {
                    allreduce_rd(comm, value, seq, bytes_of, combine)
                }),
            AllreduceAlgorithm::ReduceScatterAllgather => self
                .launch::<M, _, _>(CallKind::Allreduce, |comm, seq| {
                    allreduce_rsag(comm, value, seq, segmentation, bytes_of, combine)
                }),
            AllreduceAlgorithm::ReduceBroadcast => {
                self.launch::<M, _, _>(CallKind::Allreduce, |comm, seq| {
                    let root = if rotate {
                        (seq % comm.size() as u64) as usize
                    } else {
                        0
                    };
                    tree_allreduce(comm, root, value, seq, bytes_of, combine)
                })
            }
        }
    }

    /// Allreduce by the schedule `algo` names, bypassing the selector.
    /// `(split, unsplit)` is the state's segmentation — [`whole`] for a
    /// state that cannot be split, which rules out reduce-scatter +
    /// allgather. Reduce-scatter + allgather also needs a commutative
    /// operator; every other schedule combines in rank order. The call
    /// records the algorithm counter, messages, bytes and modeled clock a
    /// selected run of the same schedule records.
    pub fn allreduce_by<T: Clone + Send + 'static>(
        &self,
        algo: AllreduceAlgorithm,
        value: T,
        segmentation: (impl FnOnce(T, usize) -> Vec<T>, impl FnOnce(Vec<T>) -> T),
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.start_allreduce::<Blocking, _>(algo, false, value, segmentation, bytes_of, combine)
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
    /// [`Request`] immediately.
    ///
    /// A request is priced by the work it leaves on each rank, not by its
    /// critical path (see the module docs): a commutative one runs the
    /// tree, recorded as [`AllreduceAlgorithm::ReduceBroadcast`], rooted at
    /// the call's sequence number mod p; a non-commutative one runs
    /// recursive doubling, as the blocking call does. The rule reads no
    /// state's size, so ranks whose states differ in size agree on the
    /// schedule.
    pub fn iallreduce<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        bytes_of: impl Fn(&T) -> usize + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
    ) -> Request<T> {
        // Commutativity licenses both the tree and its rotation.
        let algo = if commutative {
            AllreduceAlgorithm::ReduceBroadcast
        } else {
            AllreduceAlgorithm::RecursiveDoubling
        };
        self.start_allreduce::<Nonblocking, _>(algo, commutative, value, whole(), bytes_of, combine)
    }

    /// [`iallreduce`](Self::iallreduce) for a counting state, as in
    /// [`allreduce_elementwise`](Self::allreduce_elementwise), with the
    /// capability owned, since the request outlives the call: `slots` is
    /// the operator's [`ElementwiseState`] and `combine_ops(&s)` the
    /// modeled operations `combine` charges to combine a state like `s`.
    /// It ships states, never units. The schedule, messages, bytes and
    /// modeled clock are the plain
    /// request's, but a commutative request's tree keeps each child's
    /// partial after combining it in place and writes the result into it
    /// for the way back, so no rank clones or frees another's state. A
    /// non-commutative request runs recursive doubling by value: a loan
    /// waits for its partner, which a request must not do inside a poll.
    pub fn iallreduce_elementwise<T: Clone + Send + 'static, I: 'static>(
        &self,
        value: T,
        commutative: bool,
        bytes_of: impl Fn(&T) -> usize + 'static,
        combine: impl FnMut(T, T) -> T + 'static,
        slots: (
            impl ElementwiseState<T, I> + 'static,
            impl Fn(&T) -> u64 + 'static,
        ),
    ) -> Request<T> {
        if !commutative {
            return self.iallreduce(value, false, bytes_of, combine);
        }
        let algo = AllreduceAlgorithm::ReduceBroadcast;
        self.counters().record_allreduce_algorithm(algo);
        self.launch::<Nonblocking, _, _>(CallKind::Allreduce, |comm, seq| {
            let root = (seq % comm.size() as u64) as usize;
            tree_allreduce_returning(comm, root, value, seq, bytes_of, slots)
        })
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

    /// [`allreduce`](Self::allreduce) — or, given the state's
    /// `segmentation` (`(split, unsplit)`),
    /// [`allreduce_splittable`](Self::allreduce_splittable) — for a
    /// counting state ([`Counting`]). The selection is the plain call's,
    /// priced at the rank's state, which has the identity's slots. Where
    /// recursive doubling runs, each round sends one piece its rank
    /// chooses alone: the units its partial counted while
    /// [`ships_units`](super::counting::ships_units) says they are the
    /// cheaper form, else the state, lent to the partner from 8 KiB up
    /// (each rank combines half of the slots in place and copies the other
    /// half out of its partner's buffer) and cloned below. Messages and
    /// schedule counters are the plain call's, and so are bytes and the
    /// modeled clock of a run that ships no units.
    pub fn allreduce_elementwise<T: Clone + Send + 'static, I>(
        &self,
        value: T,
        commutative: bool,
        segmentation: Option<Segmentation<'_, T>>,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
        counting: Counting<'_, T, I>,
    ) -> T {
        let algo = AllreduceAlgorithm::select(
            &self.cost_model(),
            self.size(),
            bytes_of(&value),
            commutative,
            segmentation.is_some(),
        );
        match (algo, segmentation) {
            (AllreduceAlgorithm::RecursiveDoubling, _) => {
                self.counters().record_allreduce_algorithm(algo);
                self.launch::<Blocking, _, _>(CallKind::Allreduce, |comm, seq| {
                    allreduce_rd_lent(comm, value, seq, bytes_of, combine, counting)
                })
            }
            (_, Some((split, unsplit))) => self.start_allreduce::<Blocking, _>(
                algo,
                false,
                value,
                (split, unsplit),
                bytes_of,
                combine,
            ),
            (_, None) => {
                self.start_allreduce::<Blocking, _>(algo, false, value, whole(), bytes_of, combine)
            }
        }
    }

    /// The scan family's one constructor, driven on the caller's stack.
    /// `plan` is `(algorithm, chain segment count)`; `(exclusive,
    /// inclusive)` says which halves the caller consumes, which gates
    /// only local clones and combines, never the message schedule. The
    /// result is `(exclusive, inclusive)`: the exclusive half is `None`
    /// on rank 0, and either half may be `None` when it was not asked
    /// for. A dedicated exclusive scan is recorded as
    /// [`CallKind::Exscan`], everything else as [`CallKind::Scan`] (the
    /// `scan_both` convention).
    pub(crate) fn start_scan<T: Clone + Send + 'static>(
        &self,
        (algo, segments): (ScanAlgorithm, usize),
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
        match algo {
            ScanAlgorithm::RecursiveDoubling => self.launch::<Blocking, _, _>(kind, |comm, seq| {
                scan_rd(comm, value, seq, bytes_of, combine, (exclusive, inclusive))
            }),
            ScanAlgorithm::Binomial => {
                let (ex, inc) = self.launch::<Blocking, _, _>(kind, |comm, seq| {
                    scan_binomial(comm, value, seq, bytes_of, combine)
                });
                (ex, Some(inc))
            }
            ScanAlgorithm::PipelinedChain => {
                let (ex, inc) = self.launch::<Blocking, _, _>(kind, |comm, seq| {
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
                });
                (ex, Some(inc))
            }
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
        let (_, inc) = self.start_scan(plan, value, whole(), bytes_of, combine, (false, true));
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
        let (ex, _) = self.start_scan(plan, value, whole(), bytes_of, combine, (true, false));
        ex.unwrap_or(identity)
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
        let (ex, _) = self.start_scan(plan, value, segmentation, bytes_of, combine, (true, false));
        ex.unwrap_or(identity)
    }

    /// Exclusive scan by the schedule `plan` names, bypassing the
    /// selector, as [`scan_both_by`](Self::scan_both_by) does, for a
    /// caller that priced the call itself at a size every rank computes
    /// alike. Only rank 0, which returns it, runs `ident`. Recorded as a
    /// [`scan_exclusive`](Self::scan_exclusive) of the same plan.
    pub fn scan_exclusive_by<T: Clone + Send + 'static>(
        &self,
        plan: (ScanAlgorithm, usize),
        value: T,
        ident: impl FnOnce() -> T,
        segmentation: (impl FnOnce(T, usize) -> Vec<T>, impl Fn(Vec<T>) -> T),
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let (ex, _) = self.start_scan(plan, value, segmentation, bytes_of, combine, (true, false));
        ex.unwrap_or_else(ident)
    }

    /// [`scan_exclusive`](Self::scan_exclusive) — or, given the state's
    /// `segmentation` (`(split, unsplit)`),
    /// [`scan_exclusive_splittable`](Self::scan_exclusive_splittable) —
    /// for a counting state ([`Counting`]). `value` is the rank's state,
    /// or, when `counting.units` holds its block's units, an identity they
    /// are not yet counted into: either has the identity's slots, so every
    /// rank prices the same size without building a second state. Where
    /// recursive doubling runs, each round sends one piece its rank
    /// chooses alone, as in
    /// [`allreduce_elementwise`](Self::allreduce_elementwise), but never
    /// lent, and a rank that holds units counts its own into a state only
    /// when a round must send slots; any other schedule counts them into
    /// `value` first. Only a rank 0 that starts from its state builds an
    /// identity for its result: the plain calls build one on every rank,
    /// which read `large_state` 15 % slower at 1 MiB (EXPERIMENTS.md,
    /// TXT-RETURN). Messages and schedule counters are the plain call's,
    /// and so are bytes and the modeled clock of a run that ships no
    /// units.
    pub fn scan_exclusive_elementwise<T: Clone + Send + 'static, I>(
        &self,
        mut value: T,
        ident: impl FnOnce() -> T,
        segmentation: Option<Segmentation<'_, T>>,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
        mut counting: Counting<'_, T, I>,
    ) -> T {
        let cost = self.cost_model();
        let splittable = segmentation.is_some();
        let plan = ScanAlgorithm::select(&cost, self.size(), bytes_of(&value), splittable);
        if plan.0 == ScanAlgorithm::RecursiveDoubling {
            self.counters().record_scan_algorithm(plan.0);
            return self.launch::<Blocking, _, _>(CallKind::Exscan, |comm, seq| {
                scan_rd_counting(comm, value, seq, bytes_of, ident, counting)
            });
        }
        if let Some(units) = counting.units.take() {
            counting.count(self, &mut value, &units);
        }
        match segmentation {
            Some((split, unsplit)) => {
                self.scan_exclusive_by(plan, value, ident, (split, unsplit), bytes_of, combine)
            }
            None => self.scan_exclusive_by(plan, value, ident, whole(), bytes_of, combine),
        }
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

    /// What a request boxes, for a `u64` sum: the tree's future keeps no
    /// second copy of its arguments (a plain `fn` returning an `async`
    /// block), and its up- and down-sweep share the storage of one awaited
    /// future. It is no larger than recursive doubling's, so a commutative
    /// request runs the tree at every rank count, one rank included.
    #[test]
    fn a_requests_schedule_stays_small() {
        Runtime::new(1).run(|comm| {
            let add = |a: u64, b: u64| a + b;
            let tree = super::tree_allreduce(comm.clone_handle(), 0, 1, 0, |_| 8, add);
            let rd = super::allreduce_rd(comm.clone_handle(), 1, 0, |_| 8, add);
            let (tree, rd) = (size_of_val(&tree), size_of_val(&rd));
            assert!(tree <= 208, "the tree's future grew to {tree} bytes");
            assert!(rd <= 232, "recursive doubling's future grew to {rd} bytes");
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
