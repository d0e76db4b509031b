//! Deterministic fault injection: seed-replayable chaos for the runtime.
//!
//! A [`FaultPlan`] describes, ahead of a run, every disruption the
//! transport layer should synthesize: probabilistic *delays* of message
//! delivery, bounded *stalls* of one rank at its N-th operation, and
//! *kills* that panic a rank at its N-th send, receive, or collective.
//! Plans are pure data keyed by a 64-bit seed: the same plan against the
//! same workload injects exactly the same faults, so a failing chaos seed
//! replays deterministically.
//!
//! A delayed packet waits at its *sender*, in `RankFaults`' queue for
//! its destination, and everything the rank sends to that destination
//! afterwards queues behind it, so per-peer FIFO — and with it MPI's
//! non-overtaking guarantee — holds by construction. The rank sends what
//! is due whenever it polls for progress (every wait round, and
//! `Request::test`/`test_any`), parks no longer than its earliest hold,
//! and sends the rest when it exits. The receive side knows nothing of
//! chaos.
//!
//! All of it is **off by default and zero-cost when disabled**: a runtime
//! without a plan carries `None` and the per-packet hot path checks a
//! single `Option` discriminant that never changes.
//!
//! The delay roll uses splitmix64 (Blackman & Vigna, public domain, the
//! same sequence `gv-testkit` seeds its generators with) — reimplemented
//! here because the runtime crate must not depend on the test kit.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::mailbox::{self, PeerSender};
use crate::message::Packet;
use crate::stats::RankStats;

/// The operation classes a fault trigger can count.
///
/// Counts are per rank and program-ordered, so "the 3rd collective of
/// rank 2" names the same call on every replay of a deterministic
/// workload. `Send` counts every wire send the rank issues (including
/// sends inside collective schedules); `Recv` counts blocking
/// point-to-point receive calls (`recv`/`recv_any`/`recv_meta`) at entry —
/// the schedule-based collectives complete their receives through the
/// request engine, whose completion order is arrival-driven and therefore
/// not replayable as a counter, so they are deliberately *not*
/// Recv-counted (target them with `Send` or `Collective` triggers);
/// `Collective` counts top-level collective calls, once each at entry,
/// however often the call's schedule is polled before it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A wire send (user or collective-internal).
    Send,
    /// A blocking receive call.
    Recv,
    /// A top-level collective call, counted once at entry (a collective
    /// made inside another does not count).
    Collective,
}

impl FaultOp {
    fn index(self) -> usize {
        match self {
            FaultOp::Send => 0,
            FaultOp::Recv => 1,
            FaultOp::Collective => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FaultOp::Send => "send",
            FaultOp::Recv => "recv",
            FaultOp::Collective => "collective",
        }
    }
}

/// What a counted trigger does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    /// Sleep the rank for the duration, then continue normally.
    Stall(Duration),
    /// Panic the rank with an [`InjectedKill`] payload.
    Kill,
}

/// One counted trigger: fire `action` when `rank` performs its `nth`
/// operation of class `op` (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Trigger {
    rank: usize,
    op: FaultOp,
    nth: u64,
    action: FaultAction,
}

/// A deterministic, seed-replayable fault plan for one run.
///
/// Built once, handed to `Runtime::fault_plan`, consulted by the
/// transport layer. An empty plan (the [`Default`]) injects nothing and
/// the runtime treats it exactly like no plan at all, which is what the
/// recordings guard pins.
///
/// ```
/// use std::time::Duration;
/// use gv_msgpass::{FaultOp, FaultPlan};
///
/// let plan = FaultPlan::new(42)
///     .delay_sends(200, Duration::from_millis(2)) // 20% of sends, ≤ 2ms
///     .stall(1, FaultOp::Collective, 3, Duration::from_millis(5))
///     .kill(2, FaultOp::Send, 7);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Delay probability in permille (0..=1000) and the max hold.
    delay: Option<(u32, Duration)>,
    triggers: Vec<Trigger>,
    /// Ranks whose OS thread spawn is made to fail (exercises the
    /// runtime's spawn-cleanup path without exhausting real resources).
    spawn_failures: Vec<usize>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` for its probabilistic rolls.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Delays roughly `permille`/1000 of all sends by a hold drawn
    /// uniformly in `(0, max]`. A held packet waits at the *sender*, and
    /// so does everything the rank sends to the same destination after
    /// it; the rank sends it once the hold has passed, the next time it
    /// polls for progress (or when it exits). `permille` is clamped to
    /// 1000.
    pub fn delay_sends(mut self, permille: u32, max: Duration) -> Self {
        self.delay = Some((permille.min(1000), max));
        self
    }

    /// Stalls `rank` for `pause` at its `nth` (1-based) operation of
    /// class `op`, then lets it continue.
    pub fn stall(mut self, rank: usize, op: FaultOp, nth: u64, pause: Duration) -> Self {
        self.triggers.push(Trigger {
            rank,
            op,
            nth,
            action: FaultAction::Stall(pause),
        });
        self
    }

    /// Kills `rank` (panics it with an [`InjectedKill`] payload) at its
    /// `nth` (1-based) operation of class `op`.
    pub fn kill(mut self, rank: usize, op: FaultOp, nth: u64) -> Self {
        self.triggers.push(Trigger {
            rank,
            op,
            nth,
            action: FaultAction::Kill,
        });
        self
    }

    /// Makes the runtime treat `rank`'s thread spawn as failed, to
    /// exercise the graceful spawn-cleanup path.
    pub fn fail_spawn(mut self, rank: usize) -> Self {
        self.spawn_failures.push(rank);
        self
    }

    /// True when the plan injects nothing at all (a disabled plan — the
    /// runtime skips every hook, exactly as if no plan were set).
    pub fn is_empty(&self) -> bool {
        self.delay.is_none_or(|(permille, _)| permille == 0)
            && self.triggers.is_empty()
            && self.spawn_failures.is_empty()
    }

    /// The longest single disruption the plan can inject (max delay hold
    /// or stall pause) — a lower bound a watchdog window must clear.
    pub fn max_disruption(&self) -> Duration {
        let delay = self
            .delay
            .filter(|&(permille, _)| permille > 0)
            .map_or(Duration::ZERO, |(_, max)| max);
        self.triggers
            .iter()
            .filter_map(|t| match t.action {
                FaultAction::Stall(pause) => Some(pause),
                FaultAction::Kill => None,
            })
            .fold(delay, Duration::max)
    }

    /// Whether `rank`'s spawn is planned to fail.
    pub(crate) fn spawn_fails(&self, rank: usize) -> bool {
        self.spawn_failures.contains(&rank)
    }

    /// Builds `rank`'s runtime-side injection state in a world of `p`
    /// ranks.
    pub(crate) fn for_rank(
        &self,
        rank: usize,
        p: usize,
        counters: Arc<FaultCounters>,
    ) -> RankFaults {
        // Derive an independent per-rank stream: mix the rank into the
        // seed through one splitmix64 step so adjacent seeds/ranks don't
        // correlate.
        let mut state = self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut state);
        RankFaults {
            rank,
            delay: self.delay.filter(|&(permille, _)| permille > 0),
            rng: Cell::new(state),
            triggers: self
                .triggers
                .iter()
                .filter(|t| t.rank == rank)
                .copied()
                .collect(),
            counts: [Cell::new(0), Cell::new(0), Cell::new(0)],
            counters,
            held: RefCell::new((0..p).map(|_| VecDeque::new()).collect()),
        }
    }
}

/// One step of splitmix64 (public domain; see module docs).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Panic payload of an injected kill. Downcasting a run's failure payload
/// to this type distinguishes chaos-injected deaths from real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedKill {
    /// The killed rank (world rank).
    pub rank: usize,
    /// The counted operation class the kill fired on.
    pub op: FaultOp,
    /// Which occurrence (1-based) fired it.
    pub nth: u64,
}

impl fmt::Display for InjectedKill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected kill: rank {} at its {}th {}",
            self.rank,
            self.nth,
            self.op.name()
        )
    }
}

/// Shared tallies of what a plan actually injected, reported through
/// `RunOutcome::faults`.
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    delays: AtomicU64,
    stalls: AtomicU64,
    kills: AtomicU64,
}

impl FaultCounters {
    pub(crate) fn summary(&self) -> FaultSummary {
        FaultSummary {
            delayed_sends: self.delays.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            kills: self.kills.load(Ordering::Relaxed),
        }
    }
}

/// What a run's fault plan actually injected (all zero without a plan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Sends a delay roll held at their sender.
    pub delayed_sends: u64,
    /// Stall triggers that fired.
    pub stalls: u64,
    /// Kill triggers that fired.
    pub kills: u64,
}

impl FaultSummary {
    /// True when nothing was injected.
    pub fn is_quiet(&self) -> bool {
        *self == FaultSummary::default()
    }
}

/// One rank's live injection state: the per-rank RNG stream, operation
/// counters, this rank's triggers, and the packets it holds. Not `Sync` —
/// owned by the rank thread, like the rest of the rank core.
pub(crate) struct RankFaults {
    rank: usize,
    delay: Option<(u32, Duration)>,
    rng: Cell<u64>,
    triggers: Vec<Trigger>,
    counts: [Cell<u64>; 3],
    counters: Arc<FaultCounters>,
    /// Packets held at this sender, by destination world rank, each with
    /// the instant it may leave.
    held: RefCell<Vec<VecDeque<(Instant, Packet)>>>,
}

impl RankFaults {
    /// Counts one operation of class `op` and fires any matching trigger:
    /// stalls sleep in place, kills panic with [`InjectedKill`].
    fn on_op(&self, op: FaultOp) {
        let count = &self.counts[op.index()];
        let n = count.get() + 1;
        count.set(n);
        for t in &self.triggers {
            if t.op == op && t.nth == n {
                match t.action {
                    FaultAction::Stall(pause) => {
                        self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(pause);
                    }
                    FaultAction::Kill => {
                        self.counters.kills.fetch_add(1, Ordering::Relaxed);
                        std::panic::panic_any(InjectedKill {
                            rank: self.rank,
                            op,
                            nth: n,
                        });
                    }
                }
            }
        }
    }

    /// Send hook: counts the send, fires triggers and rolls the delay,
    /// then sends `packet` down `peers[to]` or holds it.
    pub(crate) fn send(&self, peers: &[PeerSender], to: usize, packet: Packet, stats: &RankStats) {
        let hold = self.on_send();
        let queue = &mut self.held.borrow_mut()[to];
        match hold {
            None if queue.is_empty() => mailbox::send(&peers[to], packet, stats),
            // An earlier packet to `to` is still held: this one leaves
            // right after it.
            hold => queue.push_back((hold.unwrap_or_else(Instant::now), packet)),
        }
    }

    /// Sends, in order, the held packets whose hold has passed — all of
    /// them when `all` (the rank is exiting).
    pub(crate) fn release(&self, peers: &[PeerSender], stats: &RankStats, all: bool) {
        for (to, queue) in self.held.borrow_mut().iter_mut().enumerate() {
            while queue
                .front()
                .is_some_and(|&(at, _)| all || at <= Instant::now())
            {
                let (_, packet) = queue.pop_front().expect("a front was just seen");
                mailbox::send(&peers[to], packet, stats);
            }
        }
    }

    /// `timeout`, cut to the time left until this rank's earliest held
    /// packet may leave.
    pub(crate) fn park_bound(&self, timeout: Duration) -> Duration {
        let now = Instant::now();
        self.held
            .borrow()
            .iter()
            .filter_map(VecDeque::front)
            .map(|&(at, _)| at.saturating_duration_since(now))
            .fold(timeout, Duration::min)
    }

    /// Counts the send, fires triggers, and rolls the delay: the instant
    /// a delayed packet may leave, if this one is.
    fn on_send(&self) -> Option<Instant> {
        self.on_op(FaultOp::Send);
        let (permille, max) = self.delay?;
        let mut state = self.rng.get();
        let roll = splitmix64(&mut state);
        let frac = splitmix64(&mut state);
        self.rng.set(state);
        if roll % 1000 < u64::from(permille) {
            self.counters.delays.fetch_add(1, Ordering::Relaxed);
            // Uniform hold in (0, max]: scale by a 10-bit fraction.
            let hold = max.mul_f64(((frac % 1024) + 1) as f64 / 1024.0);
            Some(Instant::now() + hold)
        } else {
            None
        }
    }

    /// Receive hook: counts the receive and fires triggers.
    pub(crate) fn on_recv(&self) {
        self.on_op(FaultOp::Recv);
    }

    /// Collective hook: counts a top-level collective call.
    pub(crate) fn on_collective(&self) {
        self.on_op(FaultOp::Collective);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{build_lane_transport, Mailbox, Source};
    use crate::message::{Key, Payload};
    use crate::runtime::Runtime;
    use crate::stats::Stats;
    use crate::watchdog::RankMonitor;
    use std::sync::atomic::AtomicBool;

    /// Rank 1's fault state in a world of three, its sending endpoints,
    /// and the ranks' mailboxes, with no delay rolls: the tests place
    /// every hold themselves.
    struct Sender {
        faults: RankFaults,
        peers: Vec<PeerSender>,
        mailboxes: Vec<Mailbox>,
        stats: Stats,
        monitor: RankMonitor,
    }

    impl Sender {
        fn new() -> Self {
            let (mailboxes, mut senders, _) = build_lane_transport(3);
            Sender {
                faults: FaultPlan::new(0).for_rank(1, 3, Arc::new(FaultCounters::default())),
                peers: senders.swap_remove(1),
                mailboxes,
                stats: Stats::new(1),
                monitor: RankMonitor::detached(Arc::new(AtomicBool::new(false))),
            }
        }

        fn post(&self, to: usize, key: Key, value: i32, hold: Option<Duration>) {
            let packet = Packet {
                comm_id: 0,
                key,
                sent_at: 0.0,
                bytes: 4,
                payload: Payload::new(value),
            };
            // What a delay roll does, with a hold the test chooses; an
            // unheld packet takes the real path (this plan rolls none).
            match hold {
                Some(hold) => {
                    self.faults.held.borrow_mut()[to].push_back((Instant::now() + hold, packet))
                }
                None => self
                    .faults
                    .send(&self.peers, to, packet, self.stats.rank(0)),
            }
        }

        /// One release step, then one matching pass at `to` for rank 1's
        /// message under `key`.
        fn poll(&mut self, to: usize, key: Key) -> Option<i32> {
            let stats = self.stats.rank(0);
            self.faults.release(&self.peers, stats, false);
            self.mailboxes[to]
                .try_recv(0, Source::Rank(1), key, &[0, 1, 2], &self.monitor, stats)
                .expect("rank 1 is alive")
                .map(|(_, packet)| packet.payload.take::<i32>().ok().expect("an i32"))
        }

        fn wait(&mut self, to: usize, key: Key) -> i32 {
            loop {
                if let Some(value) = self.poll(to, key) {
                    return value;
                }
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn a_held_packet_arrives_no_earlier_than_its_hold() {
        let mut s = Sender::new();
        let started = Instant::now();
        s.post(0, 7, 42, Some(Duration::from_millis(200)));
        assert_eq!(s.poll(0, 7), None);
        assert_eq!(s.wait(0, 7), 42);
        assert!(
            started.elapsed() >= Duration::from_millis(200),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_hold_keeps_fifo_per_peer_across_tags() {
        // Everything later to the same peer waits behind the held packet,
        // whatever its tag.
        let mut s = Sender::new();
        s.post(0, 7, 1, Some(Duration::from_millis(200)));
        s.post(0, 9, 2, None);
        s.post(0, 7, 3, None);
        assert_eq!(s.poll(0, 9), None, "a later tag overtook the held packet");
        assert_eq!(s.wait(0, 9), 2);
        assert_eq!(s.wait(0, 7), 1);
        assert_eq!(s.wait(0, 7), 3);
    }

    #[test]
    fn a_hold_to_one_peer_does_not_delay_another() {
        let mut s = Sender::new();
        s.post(0, 7, 1, Some(Duration::from_secs(30)));
        s.post(2, 7, 2, None);
        assert_eq!(s.poll(2, 7), Some(2));
        assert_eq!(s.poll(0, 7), None);
        assert!(s.faults.park_bound(Duration::from_secs(60)) <= Duration::from_secs(30));
    }

    #[test]
    fn a_sender_that_exits_right_after_a_held_send_still_delivers_it() {
        // Every send is held for at least 3.5 s (a 1024th of the
        // maximum); rank 1 returns at once, and its exit sends what it
        // holds.
        let plan = FaultPlan::new(5).delay_sends(1000, Duration::from_secs(3600));
        let outcome = Runtime::new(2).fault_plan(plan).run(|comm| {
            if comm.rank() == 1 {
                comm.send(0, 3, 99u32);
                0
            } else {
                comm.recv::<u32>(1, 3)
            }
        });
        assert_eq!(outcome.results, vec![99, 0]);
        assert_eq!(outcome.faults.delayed_sends, 1);
        assert!(outcome.wall < Duration::from_secs(3), "{:?}", outcome.wall);
    }

    #[test]
    fn a_rank_that_only_spins_on_test_releases_what_it_holds() {
        // No rank ever waits: each only tests its request, so `test` is
        // the only step that can send what the plan holds.
        let plan = FaultPlan::new(11).delay_sends(1000, Duration::from_millis(5));
        let outcome = Runtime::new(2).fault_plan(plan).run(|comm| {
            let mut req = comm.iallreduce(comm.rank() as u64 + 1, true, |_| 8, |a, b| a + b);
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                if let Some(sum) = req.test().expect("no shutdown") {
                    return sum;
                }
                assert!(
                    Instant::now() < deadline,
                    "held packets were never released"
                );
            }
        });
        assert_eq!(outcome.results, vec![3, 3]);
        assert!(outcome.faults.delayed_sends > 0);
    }

    #[test]
    fn empty_plan_is_empty_and_quiet() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::new(7).is_empty());
        assert!(FaultPlan::new(7)
            .delay_sends(0, Duration::from_millis(1))
            .is_empty());
        assert!(!FaultPlan::new(7)
            .delay_sends(1, Duration::from_millis(1))
            .is_empty());
        assert!(!FaultPlan::new(7).kill(0, FaultOp::Send, 1).is_empty());
        assert!(!FaultPlan::new(7).fail_spawn(0).is_empty());
    }

    #[test]
    fn delay_rolls_replay_deterministically() {
        let plan = FaultPlan::new(99).delay_sends(500, Duration::from_millis(2));
        let draw = |plan: &FaultPlan| {
            let faults = plan.for_rank(3, 5, Arc::new(FaultCounters::default()));
            (0..64)
                .map(|_| faults.on_send().is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(&plan), draw(&plan));
        // Different ranks draw different streams.
        let other = plan.for_rank(4, 5, Arc::new(FaultCounters::default()));
        let stream = (0..64)
            .map(|_| other.on_send().is_some())
            .collect::<Vec<_>>();
        assert_ne!(draw(&plan), stream, "rank streams should decorrelate");
    }

    #[test]
    fn kill_fires_on_exact_nth_op() {
        let plan = FaultPlan::new(1).kill(2, FaultOp::Recv, 3);
        let counters = Arc::new(FaultCounters::default());
        let faults = plan.for_rank(2, 3, Arc::clone(&counters));
        faults.on_recv();
        faults.on_recv();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faults.on_recv()))
            .unwrap_err();
        let kill = err.downcast_ref::<InjectedKill>().expect("typed payload");
        assert_eq!(
            *kill,
            InjectedKill {
                rank: 2,
                op: FaultOp::Recv,
                nth: 3
            }
        );
        assert_eq!(counters.summary().kills, 1);
        // Other ranks are untouched by the trigger.
        let other = plan.for_rank(1, 3, Arc::new(FaultCounters::default()));
        for _ in 0..10 {
            other.on_recv();
        }
    }

    #[test]
    fn max_disruption_covers_delays_and_stalls() {
        let plan = FaultPlan::new(0)
            .delay_sends(100, Duration::from_millis(2))
            .stall(0, FaultOp::Send, 1, Duration::from_millis(9))
            .kill(1, FaultOp::Send, 1);
        assert_eq!(plan.max_disruption(), Duration::from_millis(9));
    }
}
