//! Oracle suite for states exchanged by view: `reduce_all` and
//! `reduce_all_splittable` of operators whose state is a run of slots
//! (`ReduceScanOp::elementwise`) against the same calls with the
//! capability hidden, which clone the state through every pairwise
//! round.
//!
//! At every rank count 1..=17 — powers of two, and the fold/unfold ranks
//! of every other count — with some ranks holding no input, the two must
//! agree bit for bit on the result and on everything the run records:
//! messages, bytes, the allreduce schedule counters and every rank's
//! modeled clock. A state below the lending threshold takes the clone
//! path either way.
//!
//! Requests take the other road: a commutative `ireduce_all` of such an
//! operator runs the tree, which combines each child's partial in place
//! and hands the child its own buffer back with the result. With eight
//! requests in flight, waited in a shuffled order, that run must record
//! what the same requests record with the capability hidden, which clone
//! the state once per tree child: results, messages, bytes and schedule
//! counters. In flight, a rank's modeled clock follows the order its
//! sweeps take arriving messages in, which two runs of the same path do
//! not share, so the clocks are held equal where that order is fixed:
//! the same requests, each waited as it is made.
//!
//! A rank killed in the middle of a loan — its state lent, or its
//! partner's view in hand — ends the run as a typed failure, with no
//! hang.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gv_core::op::{ElementwiseState, ReduceScanOp, ScanKind};
use gv_core::ops::counts::{BucketRank, Counts};
use gv_core::ops::histogram::Histogram;
use gv_core::split::SplittableState;
use gv_executor::chunk_ranges;
use gv_msgpass::{
    AllreduceAlgorithm, FaultOp, FaultPlan, InjectedKill, RunError, RunOutcome, Runtime,
};
use gv_testkit::rng::TestRng;

/// `Op` as it is, or with its capability hidden (`lend` false), counting
/// the slot combines the transport makes through the capability and
/// calling `hook` before each.
struct Probe<Op, H = fn()> {
    op: Op,
    lend: bool,
    slot_combines: AtomicU64,
    hook: H,
}

impl<Op> Probe<Op> {
    fn new(op: Op, lend: bool) -> Self {
        Probe::hooked(op, lend, || {})
    }
}

impl<Op, H: Fn()> Probe<Op, H> {
    fn hooked(op: Op, lend: bool, hook: H) -> Self {
        let slot_combines = AtomicU64::new(0);
        Probe {
            op,
            lend,
            slot_combines,
            hook,
        }
    }
}

impl<Op: ReduceScanOp<State = Vec<u64>>, H: Fn()> ElementwiseState<Vec<u64>> for Probe<Op, H> {
    fn slots<'s>(&self, state: &'s mut Vec<u64>) -> &'s mut [u64] {
        self.op.elementwise().expect("a slotted op").slots(state)
    }

    fn combine_slots(&self, mine: &mut [u64], theirs: &[u64], mine_first: bool) {
        (self.hook)();
        self.slot_combines.fetch_add(1, Ordering::Relaxed);
        let slots = self.op.elementwise().expect("a slotted op");
        slots.combine_slots(mine, theirs, mine_first);
    }
}

impl<Op: ReduceScanOp<State = Vec<u64>>, H: Fn()> ReduceScanOp for Probe<Op, H> {
    type In = Op::In;
    type State = Vec<u64>;
    type Out = Op::Out;

    const COMMUTATIVE: bool = Op::COMMUTATIVE;

    fn ident(&self) -> Vec<u64> {
        self.op.ident()
    }
    fn accum(&self, state: &mut Vec<u64>, x: &Op::In) {
        self.op.accum(state, x);
    }
    fn accum_block(&self, state: &mut Vec<u64>, block: &[Op::In]) -> bool {
        self.op.accum_block(state, block)
    }
    fn combine(&self, earlier: &mut Vec<u64>, later: Vec<u64>) {
        self.op.combine(earlier, later);
    }
    fn red_gen(&self, state: Vec<u64>) -> Op::Out {
        self.op.red_gen(state)
    }
    fn scan_gen(&self, state: &Vec<u64>, x: &Op::In) -> Op::Out {
        self.op.scan_gen(state, x)
    }
    fn wire_size(&self, state: &Vec<u64>) -> usize {
        self.op.wire_size(state)
    }
    fn combine_ops(&self, incoming: &Vec<u64>) -> u64 {
        self.op.combine_ops(incoming)
    }
    fn elementwise(&self) -> Option<&dyn ElementwiseState<Vec<u64>>> {
        self.lend.then_some(self as &dyn ElementwiseState<Vec<u64>>)
    }
}

impl<Op: SplittableState<State = Vec<u64>>, H: Fn()> SplittableState for Probe<Op, H> {
    fn split_state(&self, state: Vec<u64>, parts: usize) -> Vec<Vec<u64>> {
        self.op.split_state(state, parts)
    }
    fn unsplit_state(&self, segments: Vec<Vec<u64>>) -> Vec<u64> {
        self.op.unsplit_state(segments)
    }
}

/// Rank `r`'s block of `data`: every third rank (from rank 1) has none.
fn block<T>(data: &[T], p: usize, r: usize) -> &[T] {
    let holders: Vec<usize> = (0..p).filter(|q| q % 3 != 1).collect();
    match holders.iter().position(|&q| q == r) {
        Some(i) => &data[chunk_ranges(data.len(), holders.len()).nth(i).unwrap()],
        None => &[],
    }
}

/// Everything a run records that a view must leave as the clone path
/// left it: results, messages, bytes, schedule counters, clocks (bits).
fn record<R: std::fmt::Debug>(outcome: &RunOutcome<R>) -> String {
    let clocks: Vec<u64> = outcome.rank_clocks.iter().map(|c| c.to_bits()).collect();
    format!("{}\nclocks {clocks:?}", traffic(outcome))
}

/// [`record`] without the clocks.
fn traffic<R: std::fmt::Debug>(outcome: &RunOutcome<R>) -> String {
    let algorithms = AllreduceAlgorithm::ALL.map(|a| outcome.stats.allreduce_algorithm_calls(a));
    format!(
        "results {:?}\nmessages {} bytes {} algorithms {algorithms:?}",
        outcome.results, outcome.stats.messages, outcome.stats.bytes
    )
}

/// Runs both reductions of `op` at every rank count, with and without
/// lending, and holds the two records equal. Returns how many slot
/// combines the lending runs made, summed over rank counts.
fn assert_view_matches_clone<Op>(name: &str, op: impl Fn() -> Op, data: &[Op::In]) -> u64
where
    Op: SplittableState<State = Vec<u64>> + Sync,
    Op::In: Sync,
    Op::Out: std::fmt::Debug + Send,
{
    let mut slot_combines = 0;
    for p in 1..=17 {
        let run = |lend: bool| {
            let probe = Probe::new(op(), lend);
            let outcome = Runtime::new(p).run(|comm| {
                let local = block(data, p, comm.rank());
                (
                    gv_rsmpi::reduce_all(comm, &probe, local),
                    gv_rsmpi::reduce_all_splittable(comm, &probe, local),
                )
            });
            (
                record(&outcome),
                probe.slot_combines.load(Ordering::Relaxed),
            )
        };
        let (cloned, none) = run(false);
        let (viewed, combines) = run(true);
        assert_eq!(none, 0);
        assert_eq!(viewed, cloned, "{name} at p = {p}: view and clone disagree");
        slot_combines += combines;
    }
    slot_combines
}

#[test]
fn large_counts_by_view_equal_counts_by_clone() {
    // 4099 slots: 32 KiB, past the lending threshold (8 KiB), and odd,
    // so the two halves differ by one slot.
    let k = 4099;
    let mut rng = TestRng::new(0xC0_0175);
    let data: Vec<usize> = (0..20_000).map(|_| rng.usize_in(0..k)).collect();
    let lent = assert_view_matches_clone("Counts", || Counts::new(k), &data);
    assert!(lent > 0, "no rank count lent a state");
    assert!(assert_view_matches_clone("BucketRank", || BucketRank::new(k), &data) > 0);
}

#[test]
fn large_histograms_by_view_equal_histograms_by_clone() {
    // 2048 bins and the two open ones: an even state past the threshold.
    let mut rng = TestRng::new(0x4157);
    let data: Vec<f64> = (0..20_000).map(|_| rng.f64_in(-0.1..1.1)).collect();
    let lent = assert_view_matches_clone("Histogram", || Histogram::uniform(0.0, 1.0, 2048), &data);
    assert!(lent > 0, "no rank count lent a state");
}

#[test]
fn small_states_are_cloned() {
    let data: Vec<usize> = (0..1000).map(|i| (i * 7) % 64).collect();
    assert_eq!(
        assert_view_matches_clone("Counts", || Counts::new(64), &data),
        0
    );
}

/// Requests in flight at once, as the benchmark's `overlap` runs them.
const IN_FLIGHT: usize = 8;

/// Runs `IN_FLIGHT` `ireduce_all`s of `op` at every rank count, request
/// `i` over its own data set, with and without the capability, and holds
/// the two records equal: in flight, each rank waiting for them in its
/// own shuffled order, without the clocks; one at a time, with them.
/// Returns how many slot combines the capable runs made, summed over
/// rank counts and both runs.
fn assert_returned_matches_cloned<Op>(name: &str, op: fn() -> Op, data: &[Vec<Op::In>]) -> u64
where
    Op: ReduceScanOp<State = Vec<u64>> + 'static,
    Op::In: Sync,
    Op::Out: std::fmt::Debug + Send,
{
    let mut slot_combines = 0;
    for p in 1..=17 {
        let run = |slots: bool, in_flight: bool| {
            let combines = Arc::new(AtomicU64::new(0));
            let outcome = Runtime::new(p).run(|comm| {
                let r = comm.rank();
                let start = |set: &Vec<Op::In>| {
                    let combines = Arc::clone(&combines);
                    let count = move || {
                        combines.fetch_add(1, Ordering::Relaxed);
                    };
                    let probe = Probe::hooked(op(), slots, count);
                    gv_rsmpi::ireduce_all(comm, probe, block(set, p, r))
                };
                if !in_flight {
                    let mut wait = |set| start(set).wait().expect("transport alive");
                    return data.iter().map(&mut wait).collect();
                }
                let mut requests: Vec<_> = data.iter().map(start).collect();
                let mut order: Vec<usize> = (0..requests.len()).collect();
                let mut rng = TestRng::new(0x5EED_0000 + (p * 32 + r) as u64);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.usize_in(0..i + 1));
                }
                let mut results: Vec<Option<Op::Out>> = order.iter().map(|_| None).collect();
                for i in order {
                    results[i] = Some(requests[i].wait().expect("transport alive"));
                }
                results.into_iter().map(Option::unwrap).collect::<Vec<_>>()
            });
            let record = if in_flight { traffic } else { record };
            (record(&outcome), combines.load(Ordering::Relaxed))
        };
        for in_flight in [true, false] {
            let (cloned, none) = run(false, in_flight);
            let (returned, combines) = run(true, in_flight);
            assert_eq!(none, 0);
            assert_eq!(
                returned, cloned,
                "{name} at p = {p} (in flight: {in_flight}): returned buffers and clones disagree"
            );
            slot_combines += combines;
        }
    }
    slot_combines
}

#[test]
fn requests_in_flight_that_return_buffers_equal_requests_that_clone() {
    // 4099 slots, as above; every third rank holds no input.
    let k = 4099;
    let mut rng = TestRng::new(0x1_F11E);
    let sets: Vec<Vec<usize>> = (0..IN_FLIGHT)
        .map(|_| (0..3000).map(|_| rng.usize_in(0..k)).collect())
        .collect();
    let combined = assert_returned_matches_cloned("Counts", || Counts::new(4099), &sets);
    assert!(combined > 0, "no request combined by slots");
    let ranks = assert_returned_matches_cloned("BucketRank", || BucketRank::new(4099), &sets);
    assert!(ranks > 0);
    let values: Vec<Vec<f64>> = (0..IN_FLIGHT)
        .map(|_| (0..3000).map(|_| rng.f64_in(-0.1..1.1)).collect())
        .collect();
    let histogram = || Histogram::uniform(0.0, 1.0, 2048);
    assert!(assert_returned_matches_cloned("Histogram", histogram, &values) > 0);
}

/// A scan of the same operators is no allreduce and never lends.
#[test]
fn a_scan_of_a_slotted_state_is_untouched() {
    let k = 4099;
    let data: Vec<usize> = (0..5000).map(|i| (i * 31) % k).collect();
    let probe = Probe::new(BucketRank::new(k), true);
    let expected = gv_core::seq::scan(&probe, &data, ScanKind::Exclusive);
    let outcome = Runtime::new(2).run(|comm| {
        let local = block(&data, 2, comm.rank());
        gv_rsmpi::scan(comm, &probe, local, ScanKind::Exclusive)
    });
    assert_eq!(outcome.results.concat(), expected);
    assert_eq!(probe.slot_combines.load(Ordering::Relaxed), 0);
}

/// Runs a `Counts` reduction past the lending threshold at p = 2 with
/// `rank` killed at its `nth` send, the ops' slot combines making one
/// send each when `send_in_combine`. The run must fail, typed, with the
/// kill as its cause, inside the watchdog window: a loan that outlived
/// its partner would hang the survivor into a stall report instead.
fn kill_during_a_loan(rank: usize, nth: u64, send_in_combine: bool) {
    let k = 4099;
    let data: Vec<usize> = (0..10_000).map(|i| (i * 13) % k).collect();
    let run = Runtime::new(2)
        .watchdog(Duration::from_secs(10))
        .fault_plan(FaultPlan::new(7).kill(rank, FaultOp::Send, nth))
        .try_run(|comm| {
            let hook = || {
                if send_in_combine {
                    comm.send(comm.rank(), 77, ());
                }
            };
            let op = Probe::hooked(Counts::new(k), true, hook);
            gv_rsmpi::reduce_all(comm, &op, block(&data, 2, comm.rank()))
        });
    let report = match run {
        Err(RunError::Failed(report)) => report,
        Err(other) => panic!("expected a failure, got {other}"),
        Ok(_) => panic!("the kill did not fire"),
    };
    let kill = InjectedKill {
        rank,
        op: FaultOp::Send,
        nth,
    };
    assert_eq!((report.rank, report.injected), (rank, Some(kill)));
}

/// Killed as it sends the view of its state: lent, the partner holding
/// nothing of it yet.
#[test]
fn a_kill_while_the_state_is_lent_fails_the_run() {
    for rank in [0, 1] {
        kill_during_a_loan(rank, 1, false);
    }
}

/// Killed while combining from its partner's buffer: the partner's view
/// in hand, and its own state lent to the partner.
#[test]
fn a_kill_while_holding_the_partners_view_fails_the_run() {
    for rank in [0, 1] {
        kill_during_a_loan(rank, 2, true);
    }
}
