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

use gv_executor::lane::Parker;

use crate::cost::CostModel;
use crate::fault::RankFaults;
use crate::mailbox::{self, Mailbox, PeerSender, ShutdownError, Source, WaitState};
use crate::message::{Key, Packet, Payload, Tag};
use crate::request::Engine;
use crate::stats::{CallKind, RankStats, Stats};
use crate::watchdog::RankMonitor;

/// Identifier of the world communicator.
pub const WORLD_ID: u64 = 0;

/// Shared, cross-rank agreement on ids for derived communicators.
///
/// Every member of a `split`/`dup` looks up the same `(parent, call
/// sequence, color)` key and therefore receives the same child id, without
/// extra communication; the parent's call sequence gives every call its
/// own ids.
#[derive(Debug, Default)]
pub(crate) struct SplitRegistry {
    ids: Mutex<HashMap<(u64, u64, i64), u64>>,
    next: AtomicU64,
}

impl SplitRegistry {
    pub(crate) fn new() -> Self {
        SplitRegistry {
            ids: Mutex::new(HashMap::new()),
            next: AtomicU64::new(WORLD_ID + 1),
        }
    }

    fn id_for(&self, parent: u64, seq: u64, color: i64) -> u64 {
        *self
            .ids
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry((parent, seq, color))
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
    /// The availability of the message a schedule's last receive took
    /// without raising the clock (`request::recv_last`), 0 between polls:
    /// the schedule completes in the same poll, and whoever completes it
    /// takes the time and raises the clock to it — a blocking call at
    /// once, a request when its result is harvested.
    deferred: Cell<f64>,
    /// The modeled time each of this rank's outgoing links, by **world**
    /// destination, finishes carrying the bytes already put on it: a link
    /// carries one message at a time (see [`Comm::send_key`]).
    link_free_at: Vec<Cell<f64>>,
    pub(crate) cost: CostModel,
    /// The runtime's counters; this rank records into its own block of
    /// them only (see [`Comm::counters`]).
    stats: Arc<Stats>,
    /// This rank's world rank.
    world_rank: usize,
    pub(crate) registry: Arc<SplitRegistry>,
    /// Collective nesting depth: a collective that a collective makes
    /// (the calibration probe's barriers and broadcast) is not a separate
    /// call to a fault plan's triggers.
    collective_depth: Cell<u32>,
    /// The rank's progress engine: in-flight non-blocking collectives.
    engine: RefCell<Engine>,
    /// Set while a request's launch poll runs, which sends and receives
    /// nothing (`request::recv`).
    launching: Cell<bool>,
    /// Per-communicator collective call sequences, by communicator id.
    /// Collectives are called in the same order on every member of a
    /// communicator (the MPI rule), so each rank's counter agrees without
    /// communication; a collective's match keys carry its number, which
    /// keeps concurrent schedules on one communicator from matching each
    /// other's traffic. Consulted only when a communicator is created:
    /// every handle holds its counter directly, so a collective call
    /// hashes nothing.
    coll_seq: RefCell<HashMap<u64, Rc<Cell<u64>>>>,
    /// This rank's handle onto the runtime's failure machinery: the abort
    /// flag, the progress board the stall watchdog reads, and the park
    /// timeout the wait loop bounds itself by. Declared last (with
    /// `faults` below) so the failure-path state stays out of the hot
    /// fields' cache lines.
    pub(crate) monitor: RankMonitor,
    /// Chaos-injection state when the runtime carries a fault plan,
    /// including the packets a delay holds at this sender; `None` (the
    /// default) costs one discriminant check per hook.
    pub(crate) faults: Option<RankFaults>,
}

impl RankCore {
    /// The collective sequence counter of communicator `id`, shared by
    /// every handle of it on this rank (created at zero on first use).
    fn coll_seq_of(&self, id: u64) -> Rc<Cell<u64>> {
        Rc::clone(self.coll_seq.borrow_mut().entry(id).or_default())
    }
}

/// RAII marker for "this rank is inside a collective call", taken by each
/// collective entry point for the duration of its launch or its blocking
/// body.
pub(crate) struct CollectiveGuard<'a>(&'a Cell<u32>);

impl Drop for CollectiveGuard<'_> {
    fn drop(&mut self) {
        self.0.set(self.0.get() - 1);
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
    /// This communicator's collective call sequence (see
    /// `RankCore::coll_seq`), likewise shared by its handles.
    coll_seq: Rc<Cell<u64>>,
    core: Rc<RankCore>,
}

/// Everything the runtime wires into one rank's world communicator.
pub(crate) struct WorldInit {
    pub rank: usize,
    pub peers: Vec<PeerSender>,
    pub mailbox: Mailbox,
    pub cost: CostModel,
    pub stats: Arc<Stats>,
    pub registry: Arc<SplitRegistry>,
    pub monitor: RankMonitor,
    pub faults: Option<RankFaults>,
}

impl Comm {
    pub(crate) fn new_world(init: WorldInit) -> Self {
        let members = (0..init.peers.len()).collect();
        let link_free_at = (0..init.peers.len()).map(|_| Cell::new(0.0)).collect();
        let core = Rc::new(RankCore {
            mailbox: RefCell::new(init.mailbox),
            peers: init.peers,
            clock: Cell::new(0.0),
            link_free_at,
            cost: init.cost,
            stats: init.stats,
            world_rank: init.rank,
            registry: init.registry,
            monitor: init.monitor,
            faults: init.faults,
            collective_depth: Cell::new(0),
            launching: Cell::new(false),
            deferred: Cell::new(0.0),
            engine: RefCell::new(Engine::new()),
            coll_seq: RefCell::new(HashMap::new()),
        });
        Comm {
            id: WORLD_ID,
            rank: init.rank,
            members,
            coll_seq: core.coll_seq_of(WORLD_ID),
            core,
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

    /// Whether a request's launch poll is running on this rank.
    pub(crate) fn launching(&self) -> &Cell<bool> {
        &self.core.launching
    }

    /// The one place a rank waits. Calls `attempt` until it yields; after
    /// a miss sweeps the rank's progress engine; and only when the whole
    /// round — attempt and sweep — matched no packet takes one step up
    /// the mailbox's backoff ladder. A round that did starts it over and
    /// marks the rank running for the stall watchdog. The signal is the
    /// rank's matched-receive count (its ring and stash receives), the
    /// same count the watchdog reads as the rank's progress epoch.
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
        let matched = || self.counters().transport.total_recvs();
        let mut wait = WaitState::default();
        loop {
            let before = matched();
            match attempt() {
                Ok(Some(out)) => {
                    core.monitor.note_unblocked();
                    return out;
                }
                Ok(None) => {}
                Err(err) => std::panic::panic_any(err),
            }
            crate::request::poll_engine(self);
            if matched() == before {
                core.mailbox.borrow_mut().backoff_step(
                    &mut wait,
                    // A rank that holds packets parks no longer than its
                    // earliest hold.
                    |timeout| match &core.faults {
                        Some(faults) => faults.park_bound(timeout),
                        None => timeout,
                    },
                    &core.monitor,
                    self.counters(),
                );
            } else {
                core.monitor.note_unblocked();
                wait = WaitState::default();
            }
        }
    }

    /// [`wait_until`](Self::wait_until) `ready` yields, waiting as a
    /// receive from `src` under `key` does: the stall watchdog sees the
    /// rank blocked on that triple, and a runtime abort unwinds the rank
    /// with the typed [`ShutdownError`]. Whatever makes `ready` yield must
    /// unpark this rank's [`parker`](Self::parker).
    pub(crate) fn wait_for<R>(
        &self,
        src: usize,
        key: Key,
        mut ready: impl FnMut() -> Option<R>,
    ) -> R {
        let monitor = &self.core.monitor;
        self.wait_until(|| {
            if let Some(out) = ready() {
                return Ok(Some(out));
            }
            if monitor.is_aborted() {
                let kind = mailbox::ShutdownKind::Aborted;
                return Err(monitor.shutdown_error(self.id, Source::Rank(src), key, kind));
            }
            monitor.note_miss(self.id, Source::Rank(src), key);
            Ok(None)
        })
    }

    /// The parker that wakes this rank from a wait: every producer into
    /// its mailbox unparks it.
    pub(crate) fn parker(&self) -> Arc<Parker> {
        Arc::clone(self.core.mailbox.borrow().parker())
    }

    /// The parker of this communicator's rank `dst`.
    pub(crate) fn parker_of(&self, dst: usize) -> Arc<Parker> {
        Arc::clone(self.core.peers[self.members[dst]].parker())
    }

    /// The rank's failure-machinery handle (the runtime uses it to mark
    /// the rank done after its closure returns or unwinds).
    pub(crate) fn monitor(&self) -> &RankMonitor {
        &self.core.monitor
    }

    /// Sends, in order, the packets a fault plan holds at this rank whose
    /// hold has passed — all of them when `all`. Every wait round and
    /// every `test` takes this step with `all` false.
    pub(crate) fn release_held(&self, all: bool) {
        if let Some(faults) = &self.core.faults {
            faults.release(&self.core.peers, self.counters(), all);
        }
    }

    /// The runtime calls this when the rank's closure returns or unwinds.
    /// Drops every in-flight schedule: live (detached) schedules are
    /// cancelled, and the `Comm` clones they own are released, breaking
    /// the `Comm → Engine → Comm` cycle. Then sends, in order, whatever a
    /// fault plan still holds at this rank, before its lanes close.
    pub(crate) fn shutdown(&self) {
        if let Ok(mut engine) = self.core.engine.try_borrow_mut() {
            engine.clear();
        }
        self.release_held(true);
    }

    /// Draws this communicator's next call sequence number. Every member
    /// draws the same value for the same collective call (collectives are
    /// ordered per communicator), so the keys built from it agree across
    /// ranks, and no two calls of a run draw the same.
    pub(crate) fn next_seq(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq
    }

    /// Enters one collective call: counts it for a fault plan, then
    /// marks this rank as inside a collective until the guard drops. Each
    /// entry point takes this once per call, so a trigger's count names
    /// calls, never polls of a schedule.
    pub(crate) fn enter_collective(&self) -> CollectiveGuard<'_> {
        let depth = &self.core.collective_depth;
        // Top-level entry only: a collective a collective makes (the
        // calibration probe's barriers and broadcast) is not a separate call.
        if depth.get() == 0 {
            if let Some(faults) = &self.core.faults {
                faults.on_collective();
            }
        }
        depth.set(depth.get() + 1);
        CollectiveGuard(depth)
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

    /// Takes the availability a schedule's last receive deferred (0 if
    /// none): the time the schedule's result is ready at.
    pub(crate) fn take_deferred(&self) -> f64 {
        self.core.deferred.replace(0.0)
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
        self.counters().record_call(CallKind::Send);
        self.send_key(dst, Key::from(tag), value, bytes);
    }

    /// Sends `value` to `dst` under match key `key`, modeling `bytes` wire
    /// bytes: the one send every point-to-point and collective message
    /// takes. Counts no call: a collective's wire sends are not *user*
    /// send calls (an MPI trace would not show them either), so user sends
    /// record [`CallKind::Send`] before they get here.
    ///
    /// The modeled clock's send rule: the sender pays its overhead `α/2`
    /// and goes on (an offloaded send), while the message waits for the
    /// link to `dst` to finish the bytes already on it, then occupies it
    /// for `β·bytes`. The start of its wire time is its `sent_at`, so `S`
    /// segments sent back to back on one link arrive no earlier than
    /// `α/2 + β·n` after the first left; messages to different
    /// destinations do not delay each other.
    pub(crate) fn send_key<T: Send + 'static>(&self, dst: usize, key: Key, value: T, bytes: usize) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        self.charge_overhead();
        let counters = self.counters();
        counters.record_message(bytes);
        let to = self.members[dst];
        let link = &self.core.link_free_at[to];
        let sent_at = self.now().max(link.get());
        link.set(sent_at + self.core.cost.beta * bytes as f64);
        let packet = Packet {
            comm_id: self.id,
            key,
            sent_at,
            bytes,
            payload: Payload::new(value),
        };
        // Delivery cannot block (rings spill to an overflow queue); a
        // dead destination means that thread is gone, which the abort
        // flag turns into a clean panic at the blocked receivers instead.
        match &self.core.faults {
            // Chaos hook: counts the send (possibly firing a stall or kill
            // trigger) and may hold the packet at this rank for a while.
            Some(faults) => faults.send(&self.core.peers, to, packet, counters),
            None => mailbox::send(&self.core.peers[to], packet, counters),
        }
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
    /// Returns the value and the availability.
    fn deliver<T: 'static>(&self, packet: Packet, from: usize, bump: bool) -> (T, f64) {
        let available_at =
            packet.sent_at + self.core.cost.alpha / 2.0 + self.core.cost.beta * packet.bytes as f64;
        self.charge_overhead();
        if bump {
            self.bump_clock_to(available_at);
        }
        let value = downcast_payload::<T>(packet.payload, self.id, from, packet.key);
        (value, available_at)
    }

    /// Receives a `T` matching `(src, tag)`, advancing the clock to the
    /// message's modeled availability. Returns the value, the actual
    /// source rank, and the availability time.
    pub fn recv_meta<T: 'static>(&self, src: Source, tag: Tag) -> (T, usize, f64) {
        let (packet, from) = self.blocking_recv(src, Key::from(tag));
        let (value, available_at) = self.deliver(packet, from, true);
        (value, from, available_at)
    }

    /// Receives a `T` from `src` with `tag`.
    pub fn recv<T: 'static>(&self, src: usize, tag: Tag) -> T {
        self.recv_key(src, Key::from(tag))
    }

    /// Receives a `T` from `src` under match key `key`.
    pub(crate) fn recv_key<T: 'static>(&self, src: usize, key: Key) -> T {
        let (packet, from) = self.blocking_recv(Source::Rank(src), key);
        self.deliver(packet, from, true).0
    }

    /// Receives a `T` matching `(src, tag)` **without** advancing the
    /// clock to the message's availability time; the receive CPU overhead
    /// is still charged. Returns `(value, available_at)`.
    ///
    /// Used by collectives that model processing several arrivals in a
    /// chosen order (e.g. availability order for commutative reductions):
    /// the caller bumps the clock per processed message.
    pub(crate) fn recv_deferred<T: 'static>(&self, src: usize, key: Key) -> (T, f64) {
        let (packet, from) = self.blocking_recv(Source::Rank(src), key);
        self.deliver(packet, from, false)
    }

    /// One non-blocking matching pass on this communicator's message
    /// space: the packet and the rank it came from, or `Ok(None)` when
    /// nothing matching has arrived yet.
    #[inline]
    fn try_match(&self, src: Source, key: Key) -> Result<Option<(Packet, usize)>, ShutdownError> {
        let found = self.core.mailbox.borrow_mut().try_recv(
            self.id,
            src,
            key,
            &self.members,
            &self.core.monitor,
            self.counters(),
        )?;
        // The mailbox answers with the candidate lane's index, which for
        // `Source::Any` (every member's lane, in rank order) is the rank.
        Ok(found.map(|(lane, packet)| match src {
            Source::Rank(q) => (packet, q),
            Source::Any => (packet, lane),
        }))
    }

    /// One non-blocking matching pass for a schedule (each poll of its
    /// `request::recv` future makes one): on a delivery, accounts for the
    /// message exactly as [`recv`](Self::recv) does — except at a
    /// schedule's `last` receive, where the clock's rise to the message's
    /// availability is left to whoever completes the schedule
    /// ([`take_deferred`](Self::take_deferred)).
    pub(crate) fn try_recv_schedule<T: 'static>(
        &self,
        src: usize,
        key: Key,
        last: bool,
    ) -> Result<Option<T>, ShutdownError> {
        let found = self.try_match(Source::Rank(src), key)?;
        Ok(found.map(|(packet, from)| {
            let (value, available_at) = self.deliver(packet, from, !last);
            if last {
                self.core.deferred.set(available_at);
            }
            value
        }))
    }

    /// A blocking receive is [`wait_until`](Self::wait_until) a matching
    /// pass delivers, so in-flight requests keep progressing meanwhile
    /// (MPI's progress rule) and a receive that can never complete (peer
    /// exited or abort flag raised) unwinds this rank.
    fn blocking_recv(&self, src: Source, key: Key) -> (Packet, usize) {
        // Chaos hook: counts the blocking receive call (possibly firing a
        // stall or kill trigger) before any matching happens.
        if let Some(faults) = &self.core.faults {
            faults.on_recv();
        }
        self.wait_until(|| self.try_match(src, key))
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
        let seq = self.next_seq();
        let members = self.allgather((color, key, self.rank), std::mem::size_of_val);
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
        let members = group.iter().map(|&(_, r)| self.members[r]).collect();
        self.derive(seq, color, new_rank, members)
    }

    /// Duplicates the communicator: same group, fresh message space.
    ///
    /// Collective; every member must call `dup` in the same order
    /// relative to the communicator's other collectives.
    pub fn dup(&self) -> Comm {
        // A dup is a split in which every member passes one color.
        self.derive(self.next_seq(), -1, self.rank, Rc::clone(&self.members))
    }

    /// The communicator the call that drew `seq` derives for `color`.
    fn derive(&self, seq: u64, color: i64, rank: usize, members: Rc<[usize]>) -> Comm {
        let id = self.core.registry.id_for(self.id, seq, color);
        Comm {
            id,
            rank,
            members,
            coll_seq: self.core.coll_seq_of(id),
            core: Rc::clone(&self.core),
        }
    }
}

fn downcast_payload<T: 'static>(payload: Payload, comm: u64, src: usize, key: Key) -> T {
    match payload.take::<T>() {
        Ok(value) => value,
        Err(_) => panic!(
            "type mismatch receiving on comm {comm} from rank {src} tag {key}: expected {}",
            std::any::type_name::<T>()
        ),
    }
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::mailbox::Source;
    use crate::runtime::Runtime;

    const MODEL: CostModel = CostModel {
        alpha: 5.0e-6,
        beta: 1.0e-9,
        gamma: 0.0,
    };

    /// Within a few ulps of a clock reading of tens of microseconds.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn segments_on_one_link_arrive_no_earlier_than_the_whole_state_would() {
        // S segments of an n-byte state sent back to back to one rank:
        // the first goes on the wire after the sender's α/2, the link then
        // carries one segment at a time, so the last is available α/2 +
        // β·n after the first left — whatever S is.
        const N: usize = 1 << 20;
        for s in [1usize, 2, 20, 64] {
            let outcome = Runtime::new(2).cost_model(MODEL).run(move |comm| {
                if comm.rank() == 0 {
                    for seg in gv_executor::chunk_ranges(N / 8, s) {
                        comm.send_vec(1, 7, vec![0u64; seg.len()]);
                    }
                    return 0.0;
                }
                let mut last = 0.0;
                for _ in 0..s {
                    let (seg, _, available_at) = comm.recv_meta::<Vec<u64>>(Source::Rank(0), 7);
                    assert!(seg.len() <= N / 8);
                    last = available_at;
                }
                last
            });
            let first_sent = MODEL.alpha / 2.0;
            let floor = first_sent + MODEL.alpha / 2.0 + MODEL.beta * N as f64;
            let last = outcome.results[1];
            assert!(
                last >= floor - 1e-12,
                "S={s}: last at {last}, floor {floor}"
            );
            // Each segment holds the link longer than the sender's α/2, so
            // the link is the bottleneck and the floor is met exactly.
            assert!(close(last, floor), "S={s}: last at {last}, floor {floor}");
        }
    }

    #[test]
    fn messages_to_different_ranks_do_not_delay_each_other() {
        // A fan-out of one n-byte message to each of three ranks: every
        // link is free, so the k-th copy leaves after k sender overheads
        // and arrives α/2 + β·n later, as it did before links were
        // charged — binomial trees and `alltoallv` are priced as ever.
        const N: usize = 64 << 10;
        let outcome = Runtime::new(4).cost_model(MODEL).run(|comm| {
            if comm.rank() == 0 {
                for dst in 1..4 {
                    comm.send_vec(dst, 3, vec![0u64; N / 8]);
                }
                return 0.0;
            }
            let (_, _, available_at) = comm.recv_meta::<Vec<u64>>(Source::Rank(0), 3);
            available_at
        });
        for k in 1..4 {
            let expected = k as f64 * MODEL.alpha / 2.0 + MODEL.alpha / 2.0 + MODEL.beta * N as f64;
            let got = outcome.results[k];
            assert!(close(got, expected), "rank {k}: {got} vs {expected}");
        }
    }
}
