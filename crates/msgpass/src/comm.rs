//! The communicator: rank identity, point-to-point messaging, the virtual
//! clock, communicator management (`split`/`dup`) — and the one loop a
//! rank waits in, [`Comm::wait_until`]: every blocking call in the crate
//! (a receive, a blocking collective, a request wait) is that loop over
//! its own non-blocking attempt.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cost::CostModel;
use crate::fault::RankFaults;
use crate::mailbox::{self, Mailbox, PeerSender, ShutdownError, Source, WaitState};
use crate::measured::{Calibration, CalibrationSnapshot, CostSource};
use crate::message::{Packet, Payload, Tag};
use crate::request::Engine;
use crate::stats::{CallKind, RankStats, Stats};
use crate::watchdog::RankMonitor;

/// Identifier of the world communicator.
pub const WORLD_ID: u64 = 0;

/// How many consecutive collectives of one communicator draw distinct tag
/// salts (see [`Comm::next_collective_salt`]).
const SALT_WINDOW: u64 = 0x1000;

/// Shared, cross-rank agreement on ids for derived communicators.
///
/// Every member of a `split`/`dup` looks up the same `(parent, color)` key
/// and therefore receives the same child id, without extra communication.
#[derive(Debug, Default)]
pub(crate) struct SplitRegistry {
    ids: Mutex<HashMap<(u64, i64), u64>>,
    next: AtomicU64,
}

impl SplitRegistry {
    pub(crate) fn new() -> Self {
        SplitRegistry {
            ids: Mutex::new(HashMap::new()),
            next: AtomicU64::new(WORLD_ID + 1),
        }
    }

    fn id_for(&self, parent: u64, color: i64) -> u64 {
        *self
            .ids
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry((parent, color))
            .or_insert_with(|| self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// State shared by all communicators of one rank thread.
pub(crate) struct RankCore {
    pub(crate) mailbox: RefCell<Mailbox>,
    /// Sending endpoints to every rank, indexed by **world** rank. Owned
    /// once per rank thread; derived communicators translate through
    /// their member maps instead of cloning endpoints (SPSC lanes cannot
    /// be cloned — one producer per lane is what makes them lock-free).
    pub(crate) peers: Vec<PeerSender>,
    pub(crate) clock: Cell<f64>,
    pub(crate) cost: CostModel,
    /// Where schedule *selection* prices candidates (the virtual clock
    /// always advances by `cost` above, so recordings stay comparable).
    pub(crate) cost_source: CostSource,
    /// Shared online α–β–γ estimates behind [`CostSource::Measured`].
    pub(crate) calibration: Arc<Calibration>,
    /// The runtime's counters; this rank records into its own block of
    /// them only (see [`Comm::counters`]).
    stats: Arc<Stats>,
    /// This rank's world rank.
    world_rank: usize,
    pub(crate) registry: Arc<SplitRegistry>,
    /// Collective nesting depth: wire sends issued inside a collective are
    /// not *user* send calls (an MPI trace would not show them either), so
    /// `CallKind::Send` is only recorded at depth 0.
    pub(crate) collective_depth: Cell<u32>,
    /// The rank's progress engine: in-flight non-blocking collectives.
    pub(crate) engine: RefCell<Engine>,
    /// Monotone count of packets this rank's schedules consumed — the
    /// wait loop's progress signal (a round that moved this counter
    /// starts the backoff over instead of climbing towards a park).
    pub(crate) progress: Cell<u64>,
    /// Per-communicator collective sequence counters, for tag salting,
    /// by communicator id. Collectives are called in the same order on
    /// every member of a communicator (the MPI rule), so each rank's
    /// counter agrees without communication; salting the reserved tags by
    /// it keeps concurrent schedules on one communicator from matching
    /// each other's traffic. Consulted only when a communicator is
    /// created: every handle holds its counter directly, so a collective
    /// call hashes nothing.
    coll_seq: RefCell<HashMap<u64, Rc<Cell<u64>>>>,
    /// This rank's handle onto the runtime's failure machinery: the abort
    /// flag, the progress board the stall watchdog reads, and the park
    /// timeout the wait loop bounds itself by. Declared last (with
    /// `faults` below) so the failure-path state stays out of the hot
    /// fields' cache lines.
    pub(crate) monitor: RankMonitor,
    /// Chaos-injection state when the runtime carries a fault plan;
    /// `None` (the default) costs one discriminant check per hook.
    pub(crate) faults: Option<RankFaults>,
}

impl RankCore {
    /// The collective sequence counter of communicator `id`, shared by
    /// every handle of it on this rank (created at zero on first use).
    fn coll_seq_of(&self, id: u64) -> Rc<Cell<u64>> {
        Rc::clone(self.coll_seq.borrow_mut().entry(id).or_default())
    }
}

/// RAII marker for "this rank is inside a collective". Owns its `Rc` to
/// the rank core so schedules can hold the guard across `&mut self`
/// method calls in `poll`.
pub(crate) struct CollectiveGuard(Rc<RankCore>);

impl Drop for CollectiveGuard {
    fn drop(&mut self) {
        self.0.collective_depth.set(self.0.collective_depth.get() - 1);
    }
}

/// A communicator handle, owned by exactly one rank thread.
///
/// All methods take `&self`; a communicator is neither `Send` nor `Sync`
/// (it is the per-rank endpoint, not the group). Point-to-point messages
/// move owned values — the in-process stand-in for MPI's typed buffers.
pub struct Comm {
    id: u64,
    rank: usize,
    /// World rank of every member, indexed by rank *within this
    /// communicator* (`members[rank()] ==` this rank's world rank).
    /// Shared by the handles of one communicator, so that
    /// [`clone_handle`](Self::clone_handle) — every collective launch
    /// makes one — allocates nothing.
    members: Rc<[usize]>,
    /// This communicator's collective sequence counter (see
    /// `RankCore::coll_seq`), likewise shared by its handles.
    coll_seq: Rc<Cell<u64>>,
    core: Rc<RankCore>,
    /// Number of `dup`s performed on this communicator (for id agreement).
    dups: Cell<u64>,
}

/// Everything the runtime wires into one rank's world communicator.
pub(crate) struct WorldInit {
    pub rank: usize,
    pub peers: Vec<PeerSender>,
    pub mailbox: Mailbox,
    pub cost: CostModel,
    pub cost_source: CostSource,
    pub calibration: Arc<Calibration>,
    pub stats: Arc<Stats>,
    pub registry: Arc<SplitRegistry>,
    pub monitor: RankMonitor,
    pub faults: Option<RankFaults>,
}

impl Comm {
    pub(crate) fn new_world(init: WorldInit) -> Self {
        let members = (0..init.peers.len()).collect();
        let core = Rc::new(RankCore {
            mailbox: RefCell::new(init.mailbox),
            peers: init.peers,
            clock: Cell::new(0.0),
            cost: init.cost,
            cost_source: init.cost_source,
            calibration: init.calibration,
            stats: init.stats,
            world_rank: init.rank,
            registry: init.registry,
            monitor: init.monitor,
            faults: init.faults,
            collective_depth: Cell::new(0),
            engine: RefCell::new(Engine::default()),
            progress: Cell::new(0),
            coll_seq: RefCell::new(HashMap::new()),
        });
        Comm {
            id: WORLD_ID,
            rank: init.rank,
            members,
            coll_seq: core.coll_seq_of(WORLD_ID),
            core,
            dups: Cell::new(0),
        }
    }

    /// A second handle to the same communicator endpoint, for schedules
    /// and requests that outlive the borrow they were created under.
    /// Identical id/rank/members; shares the rank core *and* the message
    /// space (unlike [`dup`](Self::dup), which is a collective and opens
    /// a fresh message space).
    ///
    /// Public because non-blocking callers need owned captures: the
    /// `'static` closures handed to [`iallreduce`](Self::iallreduce) and
    /// friends cannot borrow the caller's `Comm`, so layers that charge
    /// modeled compute inside a combine closure (e.g. `gv-rsmpi`)
    /// capture a handle instead. `Comm` is `!Send`, so a handle can
    /// never leave its rank thread.
    pub fn clone_handle(&self) -> Comm {
        Comm {
            id: self.id,
            rank: self.rank,
            members: Rc::clone(&self.members),
            coll_seq: Rc::clone(&self.coll_seq),
            core: Rc::clone(&self.core),
            dups: Cell::new(0),
        }
    }

    /// The block of the runtime's counters that this rank — and, a
    /// `Comm` being `!Send`, only this rank's thread — records into.
    #[inline]
    pub(crate) fn counters(&self) -> &RankStats {
        self.core.stats.rank(self.core.world_rank)
    }

    /// The rank's progress engine.
    pub(crate) fn engine(&self) -> &RefCell<Engine> {
        &self.core.engine
    }

    /// The one place a rank waits. Calls `attempt` until it yields; after
    /// a miss sweeps the rank's progress engine; and only when the whole
    /// round — attempt and sweep — consumed no packet takes one step up
    /// the mailbox's backoff ladder (a round that did starts it over).
    /// Every blocking call is this loop over its own attempt: one mailbox
    /// matching pass for a receive, the schedule's `poll` for a blocking
    /// collective, the harvest for a request wait.
    ///
    /// An `Err` from the attempt unwinds this rank with the typed
    /// [`ShutdownError`] as the panic payload, which the runtime's abort
    /// path propagates to the caller of `Runtime::run`.
    #[inline]
    pub(crate) fn wait_until<R>(
        &self,
        mut attempt: impl FnMut() -> Result<Option<R>, ShutdownError>,
    ) -> R {
        let core = &*self.core;
        let mut wait = WaitState::default();
        loop {
            let before = core.progress.get();
            match attempt() {
                Ok(Some(out)) => {
                    core.monitor.note_unblocked();
                    return out;
                }
                Ok(None) => {}
                Err(err) => std::panic::panic_any(err),
            }
            crate::request::poll_engine(self);
            if core.progress.get() == before {
                core.mailbox
                    .borrow_mut()
                    .backoff_step(&mut wait, &core.monitor, self.counters());
            } else {
                wait = WaitState::default();
            }
        }
    }

    /// The rank's failure-machinery handle (the runtime uses it to mark
    /// the rank done after its closure returns or unwinds).
    pub(crate) fn monitor(&self) -> &RankMonitor {
        &self.core.monitor
    }

    /// Drops every in-flight schedule. The runtime calls this when the
    /// rank's closure returns: live (detached) schedules are cancelled,
    /// and the `Comm` clones they own are released, breaking the
    /// `Comm → Engine → Comm` cycle.
    pub(crate) fn shutdown_engine(&self) {
        if let Ok(mut engine) = self.core.engine.try_borrow_mut() {
            engine.clear();
        }
    }

    /// Draws this communicator's next collective sequence number and
    /// returns the tag salt derived from it. Every member draws the same
    /// value for the same collective call (collectives are ordered per
    /// communicator), so the salted tags agree across ranks. Reserved tag
    /// bases stay below `0x1000` apart, and the salt occupies bits 12–23,
    /// so [`SALT_WINDOW`] consecutive collectives on one communicator draw
    /// distinct tags and the next one draws the first one's again: if
    /// that one is still in flight on this rank (an unwaited or dropped
    /// request) the two could match each other's messages, so this panics.
    pub(crate) fn next_collective_salt(&self) -> Tag {
        let seq = self.coll_seq.get();
        if let Some(oldest) = self.core.engine.borrow().oldest_live_seq(self.id) {
            assert!(
                seq - oldest < SALT_WINDOW,
                "tag salt window exhausted on communicator {}: collective #{seq} would reuse \
                 the tags of #{oldest}, which is still in flight on rank {} \
                 (at most {SALT_WINDOW} consecutive collectives of one communicator may overlap)",
                self.id,
                self.core.world_rank,
            );
        }
        self.coll_seq.set(seq + 1);
        ((seq % SALT_WINDOW) as Tag) << 12
    }

    /// The sequence number this communicator's latest collective drew.
    pub(crate) fn last_collective_seq(&self) -> u64 {
        self.coll_seq.get() - 1
    }

    /// Marks this rank as inside a collective until the guard drops.
    pub(crate) fn enter_collective(&self) -> CollectiveGuard {
        let depth = self.core.collective_depth.get();
        if depth == 0 {
            // Top-level entry only: nested phases (the reduce-scatter and
            // allgather inside an RSAG allreduce, say) are not separate
            // collectives to a fault plan.
            if let Some(faults) = &self.core.faults {
                faults.on_collective();
            }
        }
        self.core.collective_depth.set(depth + 1);
        CollectiveGuard(Rc::clone(&self.core))
    }

    /// This rank's index within the communicator, `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The communicator's id (0 for the world communicator).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The cost model driving the virtual clock.
    pub fn cost_model(&self) -> CostModel {
        self.core.cost
    }

    /// Where schedule selection gets its cost model (see
    /// [`selection_cost_model`](Self::selection_cost_model)).
    pub fn cost_source(&self) -> CostSource {
        self.core.cost_source
    }

    /// The cost model schedule *selection* prices candidates from.
    ///
    /// With the default [`CostSource::Fixed`] this is the clock model and
    /// behavior is exactly the pre-calibration selector. Under
    /// [`CostSource::Measured`] it is the published online estimate,
    /// falling back to the clock model while the warmup gate is closed.
    /// The virtual clock itself always advances by
    /// [`cost_model`](Self::cost_model) — the source changes *which*
    /// schedule runs, never how a schedule is priced in the recordings.
    pub fn selection_cost_model(&self) -> CostModel {
        match self.core.cost_source {
            CostSource::Fixed(model) => model,
            CostSource::Measured => self.core.calibration.model().unwrap_or(self.core.cost),
        }
    }

    /// A point-in-time copy of the published calibration estimates.
    pub fn calibration_snapshot(&self) -> CalibrationSnapshot {
        self.core.calibration.snapshot()
    }

    /// Runs `rounds` rounds of α–β–γ probe exchanges and publishes the
    /// resulting estimates (collective over this communicator).
    ///
    /// Each round, every rank times a black-boxed scalar loop (γ), and
    /// each even/odd rank pair runs reduction-shaped ping-pongs — the
    /// echoing side folds over the payload before replying, since on a
    /// reduction's critical path every shipped byte is also combined —
    /// at two payload sizes. The minimum one-way time over the burst
    /// filters scheduler noise; β is the size-differenced slope and α
    /// the small-payload time less its bytes.
    ///
    /// The publish step is bracketed by barriers with a single writer, so
    /// the active estimates only move while every rank is quiescent —
    /// the invariant that keeps measured selection deterministic across
    /// ranks (see the `measured` module docs). Probe traffic is real
    /// traffic: it shows up in the message/byte counters and advances
    /// the virtual clock, which is one more reason the recording
    /// harnesses keep [`CostSource::Fixed`].
    pub fn calibrate_cost_model(&self, rounds: usize) {
        use crate::collectives::TagBase;
        /// Ping-pongs per probe burst; the min filters scheduler noise.
        const BURST: usize = 8;
        /// Scalar accumulates per γ probe.
        const GAMMA_OPS: u64 = 8192;
        /// Probe payloads in bytes, far enough apart for a stable slope.
        const SMALL: usize = 64;
        const LARGE: usize = 64 << 10;

        self.barrier();
        let _guard = self.enter_collective();
        let salt = self.next_collective_salt();
        let tag = TagBase::Calibrate.tag(salt);
        let r = self.rank();
        let partner = if r.is_multiple_of(2) { r + 1 } else { r - 1 };
        for _ in 0..rounds {
            // γ probe: seconds per black-boxed scalar accumulate.
            let started = std::time::Instant::now();
            let mut acc = 0u64;
            for i in 0..GAMMA_OPS {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
            self.core
                .calibration
                .record_gamma(started.elapsed().as_secs_f64() / GAMMA_OPS as f64);

            // Every pair starts its small burst together: with more ranks
            // than cores, a pair already folding 64 KiB holds a core for
            // tens of µs at a time, on top of a neighbour's 64-byte pings.
            self.barrier();
            if partner >= self.size() {
                continue; // odd rank count: the last rank only probes γ.
            }
            let t_small = self.probe_pingpong(partner, tag, SMALL, BURST);
            let t_large = self.probe_pingpong(partner, tag, LARGE, BURST);
            if r < partner {
                let beta = (t_large - t_small) / (LARGE - SMALL) as f64;
                let alpha = t_small - beta * SMALL as f64;
                self.core.calibration.record_link(alpha, beta);
            }
        }
        self.barrier();
        if r == 0 {
            self.core.calibration.publish();
        }
        self.barrier();
    }

    /// One probe burst against `partner`: one `bytes`-byte buffer bounces
    /// between the two, each side folding over it on arrival. The lower
    /// rank initiates and returns its best (minimum) one-way wall time;
    /// the higher rank echoes and returns an unused estimate.
    fn probe_pingpong(&self, partner: usize, tag: Tag, bytes: usize, burst: usize) -> f64 {
        fn fold(payload: &[u8]) -> u64 {
            let mut acc = 0u64;
            for &b in payload {
                acc = acc.wrapping_add(u64::from(std::hint::black_box(b)));
            }
            std::hint::black_box(acc)
        }
        let initiator = self.rank() < partner;
        // The one buffer that bounces, allocated outside every timed
        // window: a collective ships states it already holds.
        let mut buffer = if initiator { vec![0u8; bytes] } else { Vec::new() };
        let mut best = f64::INFINITY;
        for _ in 0..burst {
            if initiator {
                let started = std::time::Instant::now();
                self.send_with_bytes(partner, tag, buffer, bytes);
                buffer = self.recv(partner, tag);
                fold(&buffer);
                best = best.min(started.elapsed().as_secs_f64() / 2.0);
            } else {
                let probe: Vec<u8> = self.recv(partner, tag);
                fold(&probe);
                self.send_with_bytes(partner, tag, probe, bytes);
            }
        }
        best
    }

    /// The runtime's statistics counters, summed over all ranks by
    /// [`Stats::snapshot`].
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    // ------------------------------------------------------------------
    // Virtual clock
    // ------------------------------------------------------------------

    /// Current virtual time of this rank, in modeled seconds.
    pub fn now(&self) -> f64 {
        self.core.clock.get()
    }

    /// Charges `ops` abstract compute operations to this rank's clock.
    pub fn advance(&self, ops: u64) {
        let c = &self.core.clock;
        c.set(c.get() + self.core.cost.compute(ops));
    }

    /// Raises the clock to at least `t` (message availability).
    pub(crate) fn bump_clock_to(&self, t: f64) {
        if t > self.core.clock.get() {
            self.core.clock.set(t);
        }
    }

    fn charge_overhead(&self) {
        // Half the latency is CPU overhead on each side (LogP's `o`), so
        // fanning out p messages costs the sender p·α/2 — what makes
        // log-trees beat flat fan-out in the model, as on real networks.
        let c = &self.core.clock;
        c.set(c.get() + self.core.cost.alpha / 2.0);
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Sends `value` to `dst` with `tag`, modeling `bytes` wire bytes.
    ///
    /// Prefer [`send`](Self::send) unless the payload owns heap storage
    /// whose size `size_of::<T>()` does not reflect.
    pub fn send_with_bytes<T: Send + 'static>(&self, dst: usize, tag: Tag, value: T, bytes: usize) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        self.charge_overhead();
        let counters = self.counters();
        if self.core.collective_depth.get() == 0 {
            counters.record_call(CallKind::Send);
        }
        counters.record_message(bytes);
        // Chaos hook: counts the send (possibly firing a stall or kill
        // trigger) and rolls the delivery-delay embargo.
        let hold_until = match &self.core.faults {
            Some(faults) => faults.on_send().map(Box::new),
            None => None,
        };
        let packet = Packet {
            comm_id: self.id,
            src: self.rank as u32,
            tag,
            sent_at: self.now(),
            bytes,
            hold_until,
            payload: Payload::new(value),
        };
        // Delivery cannot block (rings spill to an overflow queue); a
        // dead destination means that thread is gone, which the abort
        // flag turns into a clean panic at the blocked receivers instead.
        mailbox::send(&self.core.peers[self.members[dst]], packet, counters);
    }

    /// Sends `value` to `dst` with `tag`; wire size is `size_of::<T>()`.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: Tag, value: T) {
        let bytes = std::mem::size_of::<T>();
        self.send_with_bytes(dst, tag, value, bytes);
    }

    /// Sends a slice-backed vector, modeling `len · size_of::<T>()` bytes.
    pub fn send_vec<T: Send + 'static>(&self, dst: usize, tag: Tag, value: Vec<T>) {
        let bytes = value.len() * std::mem::size_of::<T>();
        self.send_with_bytes(dst, tag, value, bytes);
    }

    /// The modeled clock's receive rule, in its one home: a message is
    /// available `α/2 + β·bytes` after it was sent, taking it charges the
    /// receive overhead, and — unless the caller orders several arrivals
    /// itself (`bump` false) — the clock then rises to the availability.
    /// Returns the value, the actual source rank, and the availability.
    fn deliver<T: 'static>(&self, packet: Packet, tag: Tag, bump: bool) -> (T, usize, f64) {
        let available_at = packet.sent_at + self.core.cost.alpha / 2.0
            + self.core.cost.beta * packet.bytes as f64;
        self.charge_overhead();
        if bump {
            self.bump_clock_to(available_at);
        }
        let from = packet.src as usize;
        let value = downcast_payload::<T>(packet.payload, self.id, from, tag);
        (value, from, available_at)
    }

    /// Receives a `T` matching `(src, tag)`, advancing the clock to the
    /// message's modeled availability. Returns the value, the actual
    /// source rank, and the availability time.
    pub fn recv_meta<T: 'static>(&self, src: Source, tag: Tag) -> (T, usize, f64) {
        let packet = self.blocking_recv(src, tag);
        self.deliver(packet, tag, true)
    }

    /// Receives a `T` from `src` with `tag`.
    pub fn recv<T: 'static>(&self, src: usize, tag: Tag) -> T {
        self.recv_meta(Source::Rank(src), tag).0
    }

    /// Receives a `T` matching `(src, tag)` **without** advancing the
    /// clock to the message's availability time; the receive CPU overhead
    /// is still charged. Returns `(value, available_at)`.
    ///
    /// Used by collectives that model processing several arrivals in a
    /// chosen order (e.g. availability order for commutative reductions):
    /// the caller bumps the clock per processed message.
    pub(crate) fn recv_deferred<T: 'static>(&self, src: Source, tag: Tag) -> (T, f64) {
        let packet = self.blocking_recv(src, tag);
        let (value, _, available_at) = self.deliver(packet, tag, false);
        (value, available_at)
    }

    /// One non-blocking matching pass on this communicator's message
    /// space; `Ok(None)` means nothing matching has arrived yet.
    #[inline]
    fn try_match(&self, src: Source, tag: Tag) -> Result<Option<Packet>, ShutdownError> {
        self.core.mailbox.borrow_mut().try_recv(
            self.id,
            src,
            tag,
            &self.members,
            &self.core.monitor,
            self.counters(),
        )
    }

    /// One non-blocking matching pass for a resumable schedule: on a
    /// delivery, bumps the rank's progress counter and accounts for the
    /// message exactly as [`recv`](Self::recv) does.
    pub(crate) fn try_recv_schedule<T: 'static>(
        &self,
        src: usize,
        tag: Tag,
    ) -> Result<Option<T>, ShutdownError> {
        let Some(packet) = self.try_match(Source::Rank(src), tag)? else {
            return Ok(None);
        };
        self.core.progress.set(self.core.progress.get() + 1);
        Ok(Some(self.deliver(packet, tag, true).0))
    }

    /// A blocking receive is [`wait_until`](Self::wait_until) a matching
    /// pass delivers, so in-flight requests keep progressing meanwhile
    /// (MPI's progress rule) and a receive that can never complete (peer
    /// exited or abort flag raised) unwinds this rank.
    fn blocking_recv(&self, src: Source, tag: Tag) -> Packet {
        // Chaos hook: counts the blocking receive call (possibly firing a
        // stall or kill trigger) before any matching happens.
        if let Some(faults) = &self.core.faults {
            faults.on_recv();
        }
        self.wait_until(|| self.try_match(src, tag))
    }

    /// Receives a `T` with `tag` from any source; returns `(value, src)`.
    pub fn recv_any<T: 'static>(&self, tag: Tag) -> (T, usize) {
        let (value, src, _) = self.recv_meta(Source::Any, tag);
        (value, src)
    }

    // ------------------------------------------------------------------
    // Derived communicators
    // ------------------------------------------------------------------

    /// Partitions the communicator: ranks passing the same `color` form a
    /// new communicator, ordered by `(key, old rank)`. Returns this rank's
    /// handle in its new group. `color` must be non-negative.
    ///
    /// Collective over the parent communicator.
    pub fn split(&self, color: i64, key: i64) -> Comm {
        assert!(color >= 0, "split colors must be non-negative");
        let members = self.allgather((color, key, self.rank));
        let mut group: Vec<(i64, usize)> = members
            .iter()
            .filter(|(c, _, _)| *c == color)
            .map(|(_, k, r)| (*k, *r))
            .collect();
        group.sort_unstable();
        let new_rank = group
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("own rank missing from split group");
        let members = group
            .iter()
            .map(|&(_, r)| self.members[r])
            .collect();
        let id = self.core.registry.id_for(self.id, color);
        Comm {
            id,
            rank: new_rank,
            members,
            coll_seq: self.core.coll_seq_of(id),
            core: Rc::clone(&self.core),
            dups: Cell::new(0),
        }
    }

    /// Duplicates the communicator: same group, fresh message space.
    ///
    /// Collective; every member must call `dup` the same number of times
    /// in the same order.
    pub fn dup(&self) -> Comm {
        let n = self.dups.get();
        self.dups.set(n + 1);
        // Negative colors are reserved for dup id agreement.
        let id = self.core.registry.id_for(self.id, -1 - n as i64);
        Comm {
            id,
            rank: self.rank,
            members: Rc::clone(&self.members),
            coll_seq: self.core.coll_seq_of(id),
            core: Rc::clone(&self.core),
            dups: Cell::new(0),
        }
    }
}

fn downcast_payload<T: 'static>(payload: Payload, comm: u64, src: usize, tag: Tag) -> T {
    match payload.take::<T>() {
        Ok(value) => value,
        Err(_) => panic!(
            "type mismatch receiving on comm {comm} from rank {src} tag {tag}: \
             expected {}",
            std::any::type_name::<T>()
        ),
    }
}
