//! The one place each collective family turns a call into a schedule.
//!
//! No call prices anything. Every blocking allreduce and scan runs
//! recursive doubling (`allreduce_rd.rs`, `scan.rs`): it is
//! latency-optimal, combines in rank order, and carries a counting
//! state's units, views and returned buffers ([`Counted`](super::Counted)).
//! Since nothing a rank holds enters the choice, ranks whose states differ
//! in size cannot split between schedules. EXPERIMENTS.md lists the
//! schedule of every end-to-end call (TXT-AUDIT) and what a dense large
//! state pays for the rule (TXT-ONE).
//!
//! A request ([`Comm::iallreduce`], [`Comm::iallreduce_by`]) registers its
//! schedule with the rank's progress engine. The operator's commutativity,
//! the one licence it gives the runtime, alone picks it: a commutative
//! request runs the tree rooted at its call sequence mod p, spreading its
//! `p − 1` clones and combines over the ranks, and a non-commutative one
//! recursive doubling. On one rank the tree is an empty schedule too, and
//! the smaller box (`a_requests_schedule_stays_small`). A request lends
//! nothing: a loan waits for its partner, which a request must not do
//! inside a poll.
//!
//! A caller that must run the tree allreduce (an ablation, a test) names
//! it to [`Comm::allreduce_by`], whose plan may also say how states cross,
//! `By(plan, crossing)`: by value, or as a counting state's
//! [`Counted`](super::Counted). The `_splittable` entry points are
//! aliases of the plain ones that the frozen benchmark adapter calls.

use super::allreduce_rd::allreduce_rd;
use super::exchange::{By, ByValue, Crossing, Exchange};
use super::launch::{Blocking, Mode, Nonblocking};
use super::scan::scan_rd;
use super::tree::tree_allreduce;
use crate::comm::Comm;
use crate::cost::AllreduceAlgorithm;
use crate::request::Request;
use crate::stats::CallKind;

impl Comm {
    /// The allreduce family's constructor: records the schedule and
    /// launches it. A `request` roots the tree at its call's sequence
    /// number mod p instead of rank 0, which only a commutative operator
    /// allows, and lends nothing.
    pub(crate) fn start_allreduce<'a, M: Mode<'a>, T: Clone + Send + 'static>(
        &self,
        By(algo, crossing): By<AllreduceAlgorithm, impl Crossing<T> + 'a>,
        request: bool,
        value: T,
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

    /// Allreduce by the schedule `plan` names: an algorithm, or
    /// `By(algorithm, crossing)` to say how states cross (a counting
    /// state's [`Counted`](super::Counted)). Both schedules combine in
    /// rank order. The call records the algorithm counter, messages,
    /// bytes and modeled clock any run of the same schedule records.
    pub fn allreduce_by<T: Clone + Send + 'static, X: Crossing<T>>(
        &self,
        plan: impl Into<By<AllreduceAlgorithm, X>>,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.start_allreduce::<Blocking, _>(plan.into(), false, value, bytes_of, combine)
    }

    /// Allreduce by recursive doubling. `commutative` is the operator's
    /// flag; recursive doubling combines in rank order, so it serves every
    /// operator and the flag does not change the schedule of a blocking
    /// call (it picks a request's, [`iallreduce`](Self::iallreduce)).
    pub fn allreduce<T: Clone + Send + 'static>(
        &self,
        value: T,
        _commutative: bool,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let rd = AllreduceAlgorithm::RecursiveDoubling;
        self.allreduce_by(rd, value, bytes_of, combine)
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
        self.start_allreduce::<Nonblocking, _>(plan, true, value, bytes_of, combine)
    }

    /// [`allreduce`](Self::allreduce), `split` and `unsplit` unused: an
    /// alias the frozen benchmark adapter calls.
    pub fn allreduce_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        commutative: bool,
        _split: impl FnOnce(T, usize) -> Vec<T>,
        _unsplit: impl FnOnce(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.allreduce(value, commutative, bytes_of, combine)
    }

    /// The scan family's one constructor, driven on the caller's stack:
    /// recursive doubling, its states crossing by `crossing`. `(exclusive,
    /// inclusive)` says which halves the caller consumes, which gates only
    /// local clones and combines, never the message schedule. The result
    /// is `(exclusive, inclusive)`, the exclusive half `None` on rank 0
    /// and either half `None` when not asked for. A dedicated exclusive
    /// scan is recorded as [`CallKind::Exscan`], everything else as
    /// [`CallKind::Scan`] (the `scan_both` convention).
    fn start_scan<T: Clone + Send + 'static>(
        &self,
        crossing: impl Crossing<T>,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
        (exclusive, inclusive): (bool, bool),
    ) -> (Option<T>, Option<T>) {
        let kind = if inclusive {
            CallKind::Scan
        } else {
            CallKind::Exscan
        };
        debug_assert!(exclusive || inclusive);
        let s = crossing
            .exchange(combine, false)
            .partials(value, (exclusive, inclusive));
        self.launch::<Blocking, _, _>(kind, |comm, seq| scan_rd(comm, s, seq, bytes_of))
    }

    /// Inclusive scan: rank `r` receives `v₀ ⊕ v₁ ⊕ ⋯ ⊕ v_r`.
    pub fn scan_inclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let need = (false, true);
        let (_, inc) = self.start_scan(ByValue, value, bytes_of, combine, need);
        inc.expect("inclusive result was requested")
    }

    /// Exclusive scan: rank `r` receives `v₀ ⊕ ⋯ ⊕ v_{r−1}`; rank 0
    /// receives `ident()`, and only rank 0 runs it.
    pub fn scan_exclusive<T: Clone + Send + 'static>(
        &self,
        value: T,
        ident: impl FnOnce() -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.scan_exclusive_by(ByValue, value, ident, bytes_of, combine)
    }

    /// Both scans at once (one communication schedule): `(exclusive,
    /// inclusive)`, with `None` as rank 0's exclusive part.
    ///
    /// **Accounting convention**: one schedule, one call — recorded as a
    /// single [`CallKind::Scan`] (the inclusive result is the primary;
    /// the exclusive half is a free by-product of the same rounds, as an
    /// MPI trace of the underlying traffic would show one collective).
    /// `CallKind::Exscan` counts only dedicated
    /// [`scan_exclusive`](Self::scan_exclusive) calls.
    pub fn scan_both<T: Clone + Send + 'static>(
        &self,
        value: T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> (Option<T>, T) {
        let need = (true, true);
        let (ex, inc) = self.start_scan(ByValue, value, bytes_of, combine, need);
        (ex, inc.expect("inclusive result was requested"))
    }

    /// [`scan_exclusive`](Self::scan_exclusive), `split` and `unsplit`
    /// unused: an alias the frozen benchmark adapter calls.
    pub fn scan_exclusive_splittable<T: Clone + Send + 'static>(
        &self,
        value: T,
        ident: impl FnOnce() -> T,
        _split: impl FnOnce(T, usize) -> Vec<T>,
        _unsplit: impl Fn(Vec<T>) -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.scan_exclusive(value, ident, bytes_of, combine)
    }

    /// [`scan_exclusive`](Self::scan_exclusive) with its states crossing
    /// by `crossing`: a counting state's [`Counted`](super::Counted),
    /// whose `value` is an identity where it holds units. Only rank 0,
    /// which returns it, runs `ident`.
    pub fn scan_exclusive_by<T: Clone + Send + 'static>(
        &self,
        crossing: impl Crossing<T>,
        value: T,
        ident: impl FnOnce() -> T,
        bytes_of: impl Fn(&T) -> usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let need = (true, false);
        let (ex, _) = self.start_scan(crossing, value, bytes_of, combine, need);
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
    fn a_blocking_allreduce_runs_recursive_doubling_at_every_size() {
        // 8 B and 64 KiB, commutative or not, at a power of two and off
        // one.
        for p in [5usize, 8] {
            for commutative in [true, false] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let r = comm.rank() as u64 + 1;
                    let scalar = comm.allreduce(r, commutative, |_| 8, |a, b| a + b);
                    let large = comm.allreduce(vec![r; 8 << 10], commutative, wire, add);
                    (scalar, large)
                });
                let total = (p * (p + 1) / 2) as u64;
                for (scalar, large) in outcome.results {
                    assert_eq!((scalar, large), (total, vec![total; 8 << 10]), "p={p}");
                }
                let rd = AllreduceAlgorithm::RecursiveDoubling;
                assert_eq!(outcome.stats.allreduce_algorithm_calls(rd), 2 * p as u64);
                assert_eq!(outcome.stats.calls(CallKind::Allreduce), 2 * p as u64);
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
}
