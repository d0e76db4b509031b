//! Oracle suite for counting states (`ReduceScanOp::elementwise`) across
//! ranks: `reduce_all` and `scan` of `Counts`, `BucketRank` and
//! `Histogram` against the same calls with the capability hidden, which
//! clone the state through every round.
//!
//! Where a rank's partial covers few inputs, recursive doubling ships
//! their slot indices instead of the state. At every rank count 1..=17,
//! with every third rank empty and one rank holding more inputs than its
//! units may ship (so some rounds are mixed: one partner sends units, the
//! other its state), both scan kinds, under the watchdog, the units path
//! must give the oracle's result and the dense path's, with its messages
//! and schedule counters. Its bytes are pinned to the closed form: 4 a
//! unit and 4 for the kind word per units piece, the state's wire size
//! per state.
//!
//! Where every partial covers enough inputs that every round sends its
//! state, the counted run clones it as the capability-hidden run does,
//! and must agree with it bit for bit on everything it records: results,
//! messages, bytes, schedule counters and every rank's modeled clock.
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
//! The one counting request that runs recursive doubling is a
//! non-commutative one, which no library operator is, so `Probe` can
//! declare itself so: eight such requests in flight, waited in a shuffled
//! order, must give the oracle's results under the watchdog.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gv_core::op::{ElementwiseState, ReduceScanOp, ScanKind};
use gv_core::ops::counts::{BucketRank, Counts};
use gv_core::ops::histogram::Histogram;
use gv_executor::chunk_ranges;
use gv_msgpass::{AllreduceAlgorithm, CallKind};
use gv_msgpass::{RunOutcome, Runtime};
use gv_testkit::rng::TestRng;

/// `Op` as it is, or with its capability hidden (`capable` false), counting
/// the times the transport takes a state's slots through the capability
/// and calling `hook` before each. `COMMUTES` false declares it
/// non-commutative, whatever `Op` declares.
struct Probe<Op, H = fn(), const COMMUTES: bool = true> {
    op: Op,
    capable: bool,
    slot_reads: AtomicU64,
    hook: H,
}

impl<Op> Probe<Op> {
    fn new(op: Op, capable: bool) -> Self {
        Probe::hooked(op, capable, || {})
    }
}

impl<Op, H: Fn()> Probe<Op, H> {
    fn hooked(op: Op, capable: bool, hook: H) -> Self {
        Probe::declared(op, capable, hook)
    }
}

impl<Op, H: Fn(), const COMMUTES: bool> Probe<Op, H, COMMUTES> {
    fn declared(op: Op, capable: bool, hook: H) -> Self {
        let slot_reads = AtomicU64::new(0);
        Probe {
            op,
            capable,
            slot_reads,
            hook,
        }
    }

    fn slot_reads(&self) -> u64 {
        self.slot_reads.load(Ordering::Relaxed)
    }
}

impl<Op: ReduceScanOp<State = Vec<u64>>, H: Fn(), const COMMUTES: bool>
    ElementwiseState<Vec<u64>, Op::In> for Probe<Op, H, COMMUTES>
{
    fn slots<'s>(&self, state: &'s mut Vec<u64>) -> &'s mut [u64] {
        (self.hook)();
        self.slot_reads.fetch_add(1, Ordering::Relaxed);
        self.op.elementwise().expect("a slotted op").slots(state)
    }

    fn slot_of(&self, x: &Op::In) -> usize {
        self.op.elementwise().expect("a slotted op").slot_of(x)
    }
}

impl<Op: ReduceScanOp<State = Vec<u64>>, H: Fn(), const COMMUTES: bool> ReduceScanOp
    for Probe<Op, H, COMMUTES>
{
    type In = Op::In;
    type State = Vec<u64>;
    type Out = Op::Out;

    const COMMUTATIVE: bool = COMMUTES && Op::COMMUTATIVE;

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
    fn elementwise(&self) -> Option<&dyn ElementwiseState<Vec<u64>, Op::In>> {
        self.capable.then_some(self as _)
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

/// Rank `r`'s block of `data` when every rank holds one.
fn dense_block<T>(data: &[T], p: usize, r: usize) -> &[T] {
    &data[chunk_ranges(data.len(), p).nth(r).unwrap()]
}

/// Everything a run records that the counted path must leave as the
/// capability-hidden path left it: results, messages, bytes, schedule
/// counters, clocks (bits).
fn record<R: std::fmt::Debug>(outcome: &RunOutcome<R>) -> String {
    let clocks: Vec<u64> = outcome.rank_clocks.iter().map(|c| c.to_bits()).collect();
    format!("{}\nclocks {clocks:?}", traffic(outcome))
}

/// [`record`] without the clocks.
fn traffic<R: std::fmt::Debug>(outcome: &RunOutcome<R>) -> String {
    format!("{}\nbytes {}", shape(outcome), outcome.stats.bytes)
}

/// [`traffic`] without the bytes: results, messages, schedule counters.
fn shape<R: std::fmt::Debug>(outcome: &RunOutcome<R>) -> String {
    let allreduces = AllreduceAlgorithm::ALL.map(|a| outcome.stats.allreduce_algorithm_calls(a));
    format!(
        "results {:?}\nmessages {} allreduces {allreduces:?}",
        outcome.results, outcome.stats.messages
    )
}

/// Runs a reduction of `op` at every rank count, every rank holding
/// enough inputs that every round sends its state, with and without the
/// capability (the capable run reading slots, the other none), and holds
/// the two records equal.
fn assert_dense_matches_hidden<Op>(name: &str, op: impl Fn() -> Op, data: &[Op::In])
where
    Op: ReduceScanOp<State = Vec<u64>> + Sync,
    Op::In: Sync,
    Op::Out: std::fmt::Debug + Send,
{
    for p in 1..=17 {
        let run = |capable: bool| {
            let probe = Probe::new(op(), capable);
            let outcome = Runtime::new(p)
                .run(|comm| gv_rsmpi::reduce_all(comm, &probe, dense_block(data, p, comm.rank())));
            assert_eq!(probe.slot_reads() > 0, capable, "{name} at p = {p}");
            record(&outcome)
        };
        assert_eq!(run(true), run(false), "{name} at p = {p}");
    }
}

// The three tests below keep the names they had when a large state
// crossed by view; every state now crosses by clone, at every size.

#[test]
fn large_counts_by_view_equal_counts_by_clone() {
    // 4099 slots, odd; at least 1176 inputs a rank, past the 512 units a
    // state of 4099 slots ships.
    let k = 4099;
    let mut rng = TestRng::new(0xC0_0175);
    let data: Vec<usize> = (0..20_000).map(|_| rng.usize_in(0..k)).collect();
    assert_dense_matches_hidden("Counts", || Counts::new(k), &data);
    assert_dense_matches_hidden("BucketRank", || BucketRank::new(k), &data);
}

#[test]
fn large_histograms_by_view_equal_histograms_by_clone() {
    // 2048 bins and the two open ones.
    let mut rng = TestRng::new(0x4157);
    let data: Vec<f64> = (0..20_000).map(|_| rng.f64_in(-0.1..1.1)).collect();
    assert_dense_matches_hidden("Histogram", || Histogram::uniform(0.0, 1.0, 2048), &data);
}

#[test]
fn small_states_are_cloned() {
    // A state of 512 bytes.
    let data: Vec<usize> = (0..1000).map(|i| (i * 7) % 64).collect();
    assert_dense_matches_hidden("Counts", || Counts::new(64), &data);
}

/// The counting calls one run makes: the reduction, then a scan of each
/// kind.
type Calls<Out> = (Out, [Vec<Out>; 2]);

fn counting_calls<Op>(comm: &gv_msgpass::Comm, op: &Op, local: &[Op::In]) -> Calls<Op::Out>
where
    Op: ReduceScanOp<State = Vec<u64>>,
{
    let scan = |kind| gv_rsmpi::scan(comm, op, local, kind);
    (
        gv_rsmpi::reduce_all(comm, op, local),
        [scan(ScanKind::Inclusive), scan(ScanKind::Exclusive)],
    )
}

/// Rank `r`'s share of the inputs `draw` makes: none on every third rank,
/// 1500 — past the units a state of 4099 slots or 2050 bins ships — on
/// `heavy`, and 20 to 319 on the rest, so that partials of a few ranks
/// cross the threshold too and a rank that shipped its units turns to
/// slots.
fn counting_blocks<In>(p: usize, heavy: usize, mut draw: impl FnMut() -> In) -> Vec<Vec<In>> {
    (0..p)
        .map(|r| {
            let n = match r {
                _ if r % 3 == 1 => 0,
                _ if r == heavy => 1500,
                _ => 20 + (r * 97) % 300,
            };
            (0..n).map(|_| draw()).collect()
        })
        .collect()
}

/// Every counting call of `op` at every rank count 1..=17, under the
/// watchdog, with the capability and without, over [`counting_blocks`]
/// with the heavy rank in the middle and then first, where the states it
/// sends reach ranks that shipped units and send again: results equal to
/// the oracle's and to each other, and messages and schedule counters
/// equal. Returns the bytes the two paths sent, summed over the runs.
fn assert_units_match_dense<Op>(
    name: &str,
    op: impl Fn() -> Op,
    mut draw: impl FnMut() -> Op::In,
) -> (u64, u64)
where
    Op: ReduceScanOp<State = Vec<u64>> + Sync,
    Op::In: Clone + Sync,
    Op::Out: std::fmt::Debug + PartialEq + Send,
{
    let mut bytes = (0, 0);
    for (p, first) in (1..=17).flat_map(|p| [(p, false), (p, true)]) {
        let heavy = (p / 2..p)
            .chain(0..p / 2)
            .find(|r| r % 3 != 1)
            .expect("a holder");
        let heavy = if first { 0 } else { heavy };
        let blocks = counting_blocks(p, heavy, &mut draw);
        let all: Vec<Op::In> = blocks.concat();
        let oracle = {
            let op = op();
            let scans = [ScanKind::Inclusive, ScanKind::Exclusive];
            let scans = scans.map(|kind| gv_core::seq::scan(&op, &all, kind));
            (gv_core::seq::reduce(&op, &all), scans)
        };
        let run = |capable: bool| {
            let probe = Probe::new(op(), capable);
            let outcome = Runtime::new(p)
                .watchdog(Duration::from_secs(20))
                .run(|comm| counting_calls(comm, &probe, &blocks[comm.rank()]));
            assert_eq!(probe.slot_reads() > 0, capable);
            outcome
        };
        let (dense, units) = (run(false), run(true));
        for (r, (reduced, scans)) in units.results.iter().enumerate() {
            let offset: usize = blocks[..r].iter().map(Vec::len).sum();
            let mine = offset..offset + blocks[r].len();
            assert_eq!(
                reduced, &oracle.0,
                "{name} at p = {p}, heavy rank {heavy}, rank {r}"
            );
            for (i, got) in scans.iter().enumerate() {
                let expected = &oracle.1[i][mine.clone()];
                assert_eq!(
                    got.as_slice(),
                    expected,
                    "{name} at p = {p}, heavy rank {heavy}, rank {r}, scan {i}"
                );
            }
        }
        let what = format!("{name} at p = {p}, heavy rank {heavy}");
        assert_eq!(shape(&units), shape(&dense), "{what}");
        bytes.0 += units.stats.bytes;
        bytes.1 += dense.stats.bytes;
    }
    bytes
}

#[test]
fn counting_calls_that_ship_units_equal_the_oracle_and_the_dense_path() {
    // Every input lands in one of 64 slots (the underflow bin and 63 bins
    // for the histogram), so a rank's scan outputs read slots that every
    // other rank counts into: a unit lost or counted twice on the way
    // shows in them, not only in the reductions.
    let mut rng = TestRng::new(0x4175);
    let (units, dense) =
        assert_units_match_dense("Counts", || Counts::new(4099), || rng.usize_in(0..64));
    assert!(units < dense, "Counts: {units} B by units, {dense} B dense");
    let ranks = || BucketRank::new(4099);
    let (units, dense) = assert_units_match_dense("BucketRank", ranks, || rng.usize_in(0..64));
    assert!(
        units < dense,
        "BucketRank: {units} B by units, {dense} B dense"
    );
    let histogram = || Histogram::uniform(0.0, 1.0, 2048);
    let (units, dense) =
        assert_units_match_dense("Histogram", histogram, || rng.f64_in(-0.01..0.03));
    assert!(
        units < dense,
        "Histogram: {units} B by units, {dense} B dense"
    );
}

#[test]
fn schedules_that_carry_states_build_no_units() {
    // The tree a commutative request runs carries states: a rank holding
    // few inputs builds no units for it and accumulates its block, so
    // every tree edge carries the state's bytes, as the dense path's do.
    let (p, k) = (16, 4099);
    let data: Vec<usize> = (0..p * 40).map(|i| (i * 7919) % k).collect();
    let run = |capable: bool| {
        let outcome = Runtime::new(p).run(|comm| {
            let probe = Probe::new(Counts::new(k), capable);
            let local = dense_block(&data, p, comm.rank());
            let mut request = gv_rsmpi::ireduce_all(comm, probe, local);
            request.wait().expect("transport alive")
        });
        (traffic(&outcome), outcome.stats)
    };
    let (dense, _) = run(false);
    let (counted, stats) = run(true);
    let tree = AllreduceAlgorithm::ReduceBroadcast;
    assert_eq!(stats.allreduce_algorithm_calls(tree), p as u64);
    let edges = 2 * (p as u64 - 1);
    assert_eq!((stats.messages, stats.bytes), (edges, edges * 8 * k as u64));
    assert_eq!(counted, dense);
}

/// The bytes a `reduce_all` and an exclusive `scan` by recursive
/// doubling send when every round ships units, from the block sizes `n`
/// alone. Recursive doubling folds the first `2·rem` ranks onto the odd
/// ones (one piece of the even rank's units each), and each of its
/// ⌈log₂ p₂⌉ rounds sends every survivor's partial: over the survivors,
/// the partials of round `j` cover each unit `2ʲ` times. The unfold
/// sends each folded rank the result, `8·slots` bytes. The shifted
/// scan's round `d` sends rank `r` ranks `r − d + 1 ..= r`'s units.
fn closed_form(n: &[usize], slots: usize) -> (u64, u64) {
    let p = n.len();
    let piece = |units: usize| 4 * (units as u64 + 1);
    let total = n.iter().sum::<usize>() as u64;
    let p2 = if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    };
    let rem = p - p2;
    let fold: u64 = (0..rem).map(|i| piece(n[2 * i])).sum();
    let rounds: u64 = (0..p2.trailing_zeros())
        .map(|j| (1 << j) * 4 * total + 4 * p2 as u64)
        .sum();
    let unfold = (rem * 8 * slots) as u64;
    let mut scan = 0;
    let mut d = 1;
    while d < p {
        for r in 0..p - d {
            scan += piece(n[(r + 1).saturating_sub(d)..=r].iter().sum());
        }
        d <<= 1;
    }
    (fold + rounds + unfold, scan)
}

#[test]
fn units_are_priced_four_bytes_each_and_one_kind_word() {
    let k = 4099;
    let mut rng = TestRng::new(0xB17E5);
    for p in 1..=17 {
        // At most 40 units a rank: the whole run's units ship at p = 17.
        let blocks: Vec<Vec<usize>> = (0..p)
            .map(|r| (0..(r * 13) % 41).map(|_| rng.usize_in(0..k)).collect())
            .collect();
        let n: Vec<usize> = blocks.iter().map(Vec::len).collect();
        let (reduced, scanned) = closed_form(&n, k);
        let reduce = Runtime::new(p).run(|comm| {
            gv_rsmpi::reduce_all(comm, &Counts::new(k), &blocks[comm.rank()]);
        });
        let rd = AllreduceAlgorithm::RecursiveDoubling;
        assert_eq!(reduce.stats.allreduce_algorithm_calls(rd), p as u64);
        assert_eq!(
            reduce.stats.bytes, reduced,
            "reduce_all at p = {p}, blocks {n:?}"
        );
        let scan = Runtime::new(p).run(|comm| {
            let local = &blocks[comm.rank()];
            gv_rsmpi::scan(comm, &BucketRank::new(k), local, ScanKind::Exclusive);
        });
        assert_eq!(scan.stats.calls(CallKind::Exscan), p as u64);
        assert_eq!(scan.stats.bytes, scanned, "scan at p = {p}, blocks {n:?}");
    }
}

/// Requests in flight at once, as the benchmark's `overlap` runs them.
const IN_FLIGHT: usize = 8;

/// Runs `IN_FLIGHT` `ireduce_all`s of `op` at every rank count, request
/// `i` over its own data set, with and without the capability, and holds
/// the two records equal: in flight, each rank waiting for them in its
/// own shuffled order, without the clocks; one at a time, with them.
/// Returns how many times the capable runs read a state's slots, summed
/// over rank counts and both runs.
fn assert_returned_matches_cloned<Op>(name: &str, op: fn() -> Op, data: &[Vec<Op::In>]) -> u64
where
    Op: ReduceScanOp<State = Vec<u64>> + 'static,
    Op::In: Sync,
    Op::Out: std::fmt::Debug + Send,
{
    let mut slot_reads = 0;
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
            let (returned, reads) = run(true, in_flight);
            assert_eq!(none, 0);
            assert_eq!(
                returned, cloned,
                "{name} at p = {p} (in flight: {in_flight}): returned buffers and clones disagree"
            );
            slot_reads += reads;
        }
    }
    slot_reads
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

/// A counting operator declared non-commutative, whose requests run
/// recursive doubling (a rotated tree would permute its combines), with
/// eight requests of 32 KiB states in flight at p = 2…9, each rank waiting
/// for them in its own shuffled order: every result the oracle's, every
/// call recursive doubling, and no stall.
#[test]
fn non_commutative_counting_requests_in_flight_equal_the_oracle() {
    let k = 4099;
    let mut rng = TestRng::new(0x0_4D3E);
    let sets: Vec<Vec<usize>> = (0..IN_FLIGHT)
        .map(|_| (0..3000).map(|_| rng.usize_in(0..k)).collect())
        .collect();
    let oracle: Vec<Vec<u64>> = sets
        .iter()
        .map(|set| gv_core::seq::reduce(&Counts::new(k), set))
        .collect();
    for p in 2..=9 {
        let outcome = Runtime::new(p)
            .watchdog(Duration::from_secs(20))
            .run(|comm| {
                let r = comm.rank();
                let start = |set: &Vec<usize>| {
                    let op = Probe::<_, _, false>::declared(Counts::new(k), true, || {});
                    gv_rsmpi::ireduce_all(comm, op, dense_block(set, p, r))
                };
                let mut requests: Vec<_> = sets.iter().map(start).collect();
                let mut order: Vec<usize> = (0..requests.len()).collect();
                let mut rng = TestRng::new(0x0_4D3E_0000 + (p * 32 + r) as u64);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.usize_in(0..i + 1));
                }
                let mut results = vec![Vec::new(); order.len()];
                for i in order {
                    results[i] = requests[i].wait().expect("transport alive");
                }
                results
            });
        assert_eq!(outcome.results, vec![oracle.clone(); p], "p = {p}");
        let rd = AllreduceAlgorithm::RecursiveDoubling;
        let calls = outcome.stats.allreduce_algorithm_calls(rd);
        assert_eq!(calls, (p * IN_FLIGHT) as u64, "p = {p}");
    }
}
