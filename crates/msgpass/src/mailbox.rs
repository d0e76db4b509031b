//! Per-rank receive side with MPI-style `(communicator, source, tag)`
//! matching, over per-peer lanes.
//!
//! Rank `r` has **one SPSC lane per source rank** (`gv_executor::lane`):
//! a matched receive from a known source — the collective fast path —
//! polls exactly one lock-free ring and never touches any other rank's
//! traffic. Arrivals that do not match the posted `(comm, tag)` are
//! stashed *per lane, keyed by `(comm, tag)`*, so the slow path
//! (`Source::Any`, tag mismatches) costs a hash lookup per candidate lane
//! instead of a walk over everything pending. Within one
//! `(comm, source, tag)` triple, ring order plus per-key FIFO stashes
//! preserve arrival order — MPI's non-overtaking guarantee.
//!
//! A receive that can never complete (peer threads exited, or the runtime
//! raised the abort flag after a peer panicked) surfaces as a
//! [`ShutdownError`] rather than a bare panic, so callers can attach
//! context before unwinding. A parked receive observes shutdown two
//! ways: lane closure and runtime aborts explicitly unpark it, and the
//! park itself always carries a timeout (configurable via
//! `Runtime::park_timeout`, 50 ms by default), so even a lost wakeup
//! degrades to a bounded re-poll, never a hang.
//!
//! The mailbox offers one non-blocking matching pass
//! ([`Mailbox::try_recv`]) and one backoff step
//! ([`Mailbox::backoff_step`]); the loop that alternates them — the only
//! place a rank waits — is `Comm::wait_until`. Both feed the rank's
//! [`RankMonitor`](crate::watchdog::RankMonitor): a match bumps the
//! progress epoch, a miss records its triple, a park publishes the last
//! miss as what the rank is blocked on — the raw material of the stall
//! watchdog's reports. With chaos injection active
//! (`Runtime::fault_plan`), packets may carry an embargo deadline
//! (`Packet::hold_until`); the matching passes refuse to deliver a held
//! packet — or anything behind it on the same matching key, preserving
//! per-triple FIFO — until the hold expires.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use gv_executor::lane::{lane, LaneDeposit, LaneReceiver, LaneSender, Parker};

use crate::message::{Packet, Tag};
use crate::stats::RankStats;
use crate::watchdog::RankMonitor;

/// Ring slots per lane. Collective schedules keep at most a handful of
/// messages in flight per peer pair, so a small ring suffices; bursts
/// spill to the lane's overflow queue without blocking or loss. Kept
/// modest because a `p`-rank runtime allocates `p²` lanes.
const LANE_CAPACITY: usize = 32;

/// Scheduler yields between spinning and parking. A yield hands the CPU
/// to a runnable producer without the futex sleep/wake a park costs —
/// on an oversubscribed host (ranks ≫ cores) the awaited producer is
/// almost always runnable, so most waits resolve within a few yields
/// and never park.
const YIELD_LIMIT: u32 = 64;

/// True while the packet's chaos embargo holds. Costs one null check
/// (no clock read) for the `None` case every non-injected packet
/// carries.
#[inline]
fn embargoed(packet: &Packet) -> bool {
    packet.hold_until.as_deref().is_some_and(|&t| Instant::now() < t)
}

/// Where `Comm::wait_until` stands on the backoff ladder; it starts a
/// fresh one whenever a round consumed a packet, so the next wait begins
/// hot again.
#[derive(Default)]
pub(crate) struct WaitState {
    spins: u32,
    yields: u32,
    /// The wake ticket taken by the arming step, redeemed by the park
    /// that follows it if the round in between still consumed nothing.
    ticket: Option<u64>,
}

/// Source selector for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Match only messages from this rank.
    Rank(usize),
    /// Match messages from any rank (MPI_ANY_SOURCE).
    Any,
}

/// Why a blocked receive was shut down instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownKind {
    /// The transport disconnected: every rank the receive could match
    /// exited without sending the awaited message.
    Disconnected,
    /// A peer rank panicked and the runtime raised the abort flag; this
    /// rank unwinds instead of deadlocking on a message that will never
    /// be sent.
    Aborted,
}

/// A receive that can never complete, with the matching triple it was
/// blocked on. Raised through `std::panic::panic_any` by the
/// communicator so the runtime's normal abort path unwinds every rank;
/// callers that `catch_unwind` a run can downcast the payload to this
/// type to distinguish shutdown from an application panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownError {
    /// Communicator the receive was posted on.
    pub comm: u64,
    /// Source selector of the blocked receive.
    pub src: Source,
    /// Tag of the blocked receive.
    pub tag: Tag,
    /// What cut the receive short.
    pub kind: ShutdownKind,
    /// World rank of the blocked receiver.
    pub rank: usize,
    /// The first rank recorded as failed by the runtime when this error
    /// was raised, if any (the likely root cause of an abort).
    pub culprit: Option<usize>,
}

impl fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reason = match self.kind {
            ShutdownKind::Disconnected => "peer ranks exited without sending",
            ShutdownKind::Aborted => "a peer rank panicked",
        };
        write!(f, "rank {} recv(comm={}, src=", self.rank, self.comm)?;
        match self.src {
            Source::Rank(r) => write!(f, "rank {r}")?,
            Source::Any => f.write_str("any")?,
        }
        write!(
            f,
            ", tag={:#x}) in {} shut down: {reason}",
            self.tag,
            crate::collectives::describe_tag(self.tag)
        )?;
        if let Some(culprit) = self.culprit {
            write!(f, " (first failure on rank {culprit})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShutdownError {}

/// The sending endpoint for one destination rank: a dedicated
/// source→destination lane (this rank is the source) whose element is the
/// whole envelope.
pub(crate) type PeerSender = LaneSender<Packet>;

/// Delivers `packet` down `peer`'s lane. Delivery to a dead receiver is
/// silently dropped — the runtime's abort machinery handles the peer's
/// disappearance.
pub(crate) fn send(peer: &PeerSender, packet: Packet, stats: &RankStats) {
    if let Ok(LaneDeposit::Overflow) = peer.send(packet) {
        stats.transport.record_overflow_send();
    }
}

/// A stashed mismatched arrival: per-key FIFO plus an arrival sequence
/// number for `Source::Any`'s earliest-first pick.
type StashQueue = VecDeque<(u64, Packet)>;

/// One source rank's lane on the receive side.
struct LaneState {
    rx: LaneReceiver<Packet>,
    /// Mismatched arrivals from this source, keyed by `(comm, tag)` (the
    /// source is the lane itself). FIFO per key preserves non-overtaking.
    stash: HashMap<(u64, Tag), StashQueue>,
    /// Total stashed packets across keys (cheap emptiness check).
    stash_len: usize,
    /// Arrival counter for this lane, stamped onto stashed packets.
    next_seq: u64,
}

impl LaneState {
    fn new(rx: LaneReceiver<Packet>) -> Self {
        LaneState {
            rx,
            stash: HashMap::new(),
            stash_len: 0,
            next_seq: 0,
        }
    }

    fn stash(&mut self, packet: Packet) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stash
            .entry((packet.comm_id, packet.tag))
            .or_default()
            .push_back((seq, packet));
        self.stash_len += 1;
    }
}

/// The receive side of one rank: one lane per source.
pub(crate) struct Mailbox {
    /// One lane per source, indexed by the source's **world** rank.
    lanes: Vec<LaneState>,
    /// Shared by all lanes feeding this rank; any producer wakes us.
    parker: Arc<Parker>,
    /// Bounded spin before parking (host-parallelism-aware).
    spin_limit: u32,
    /// Stashed packets carrying a chaos embargo (counted until taken,
    /// even after their holds expire). Zero on every non-injected run,
    /// which lets the hot paths skip the embargo-only re-checks with one
    /// integer compare.
    held_stashed: usize,
}

impl Mailbox {
    /// Takes the earliest stashed packet matching `(comm_id, tag)` among
    /// the candidate lanes, if any. A lane whose front packet for the key
    /// is embargoed contributes nothing — delivering anything behind the
    /// held front would break per-triple FIFO, and the front itself must
    /// wait out its hold.
    fn take_stashed(&mut self, comm_id: u64, tag: Tag, lanes: &[usize]) -> Option<Packet> {
        let key = (comm_id, tag);
        let mut best: Option<(u64, usize)> = None;
        for &w in lanes {
            let lane = &self.lanes[w];
            if lane.stash_len == 0 {
                continue;
            }
            if let Some(&(seq, ref front)) = lane.stash.get(&key).and_then(|q| q.front()) {
                if !embargoed(front) && best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, w));
                }
            }
        }
        let (_, w) = best?;
        let lane = &mut self.lanes[w];
        let queue = lane.stash.get_mut(&key).expect("stash key vanished");
        let (_, packet) = queue.pop_front().expect("stash queue empty");
        if queue.is_empty() {
            lane.stash.remove(&key);
        }
        lane.stash_len -= 1;
        if packet.hold_until.is_some() {
            self.held_stashed -= 1;
        }
        Some(packet)
    }

    /// True when any candidate lane stashes packets for the key —
    /// including embargoed ones a `take_stashed` refuses to deliver yet.
    fn has_stashed(&self, comm_id: u64, tag: Tag, lanes: &[usize]) -> bool {
        let key = (comm_id, tag);
        lanes.iter().any(|&w| {
            let lane = &self.lanes[w];
            lane.stash_len > 0 && lane.stash.contains_key(&key)
        })
    }

    /// Drains the candidate lanes' rings: returns the first match,
    /// stashing everything else by its own `(comm, tag)` key.
    ///
    /// A ring packet may only short-circuit past the stash if its lane
    /// stashes nothing under the same key: the callers always exhaust
    /// `take_stashed` first, so a same-key stashed packet can only exist
    /// behind a chaos embargo (`held_stashed > 0` gates the hash lookup
    /// down to one integer compare on non-injected runs) — a held packet
    /// parked in the stash must not be overtaken by a younger ring
    /// arrival on its triple.
    fn drain(
        &mut self,
        comm_id: u64,
        tag: Tag,
        lanes: &[usize],
        stats: &RankStats,
    ) -> Option<Packet> {
        for &w in lanes {
            let lane = &mut self.lanes[w];
            while let Some(packet) = lane.rx.try_recv() {
                if packet.comm_id == comm_id
                    && packet.tag == tag
                    && !(self.held_stashed > 0 && lane.stash.contains_key(&(comm_id, tag)))
                    && !embargoed(&packet)
                {
                    stats.transport.record_ring_recv();
                    return Some(packet);
                }
                if packet.hold_until.is_some() {
                    stats.transport.record_embargo_defer();
                    self.held_stashed += 1;
                }
                lane.stash(packet);
                stats.transport.record_restash();
            }
        }
        None
    }

    /// One non-blocking matching pass over `lanes`: stash, then a ring
    /// drain, then the shutdown checks. `Ok(None)` means "nothing yet,
    /// transport alive".
    fn try_recv_on(
        &mut self,
        comm_id: u64,
        src: Source,
        tag: Tag,
        lanes: &[usize],
        monitor: &RankMonitor,
        stats: &RankStats,
    ) -> Result<Option<Packet>, ShutdownError> {
        if let Some(packet) = self.take_stashed(comm_id, tag, lanes) {
            monitor.note_match();
            stats.transport.record_stash_recv();
            return Ok(Some(packet));
        }
        if let Some(packet) = self.drain(comm_id, tag, lanes, stats) {
            monitor.note_match();
            return Ok(Some(packet));
        }
        // Shutdown checks come only after a full drain: a message already
        // delivered always beats a concurrent shutdown.
        if monitor.is_aborted() {
            return Err(monitor.shutdown_error(comm_id, src, tag, ShutdownKind::Aborted));
        }
        if lanes.iter().all(|&w| self.lanes[w].rx.is_closed()) {
            // `is_closed` was observed *after* the drain above, and a
            // producer closes only after its final send, so one more
            // drain sees anything that raced with the closure.
            if let Some(packet) = self.drain(comm_id, tag, lanes, stats) {
                monitor.note_match();
                return Ok(Some(packet));
            }
            // An embargoed stashed match is still a future delivery, not
            // a disconnect: report "nothing yet" and let the caller wait
            // out the hold.
            if self.has_stashed(comm_id, tag, lanes) {
                monitor.note_miss(comm_id, src, tag);
                return Ok(None);
            }
            let kind = if monitor.is_aborted() {
                ShutdownKind::Aborted
            } else {
                ShutdownKind::Disconnected
            };
            return Err(monitor.shutdown_error(comm_id, src, tag, kind));
        }
        monitor.note_miss(comm_id, src, tag);
        Ok(None)
    }

    /// One backoff step for a rank whose last round of polls consumed
    /// nothing: spin, then yield, then arm, then park. Arming only takes a
    /// wake ticket, so the caller polls everything it waits on once more
    /// before the park redeems it: a message deposited from then on is
    /// either found by that round or makes the park return at once, and
    /// traffic nobody polls for cannot keep the rank awake. The park is
    /// bounded by the monitor's timeout and ended early by any producer,
    /// a lane closure, or a runtime abort's unpark.
    pub(crate) fn backoff_step(
        &mut self,
        state: &mut WaitState,
        monitor: &RankMonitor,
        stats: &RankStats,
    ) {
        if state.spins < self.spin_limit {
            state.spins += 1;
            std::hint::spin_loop();
            return;
        }
        if state.yields < YIELD_LIMIT {
            state.yields += 1;
            std::thread::yield_now();
            return;
        }
        match state.ticket.take() {
            None => state.ticket = Some(self.parker.ticket()),
            Some(ticket) => {
                monitor.note_parked();
                stats.transport.record_park();
                self.parker.park_timeout(ticket, monitor.park_timeout());
                *state = WaitState::default();
            }
        }
    }

    /// One non-blocking matching pass for `(comm_id, src, tag)`:
    /// `Ok(None)` when nothing is receivable yet. Every receive, blocking
    /// or scheduled, is built on this.
    ///
    /// `members` maps the posting communicator's ranks to **world** ranks
    /// (`members[q]` = world rank of comm rank `q`), which is how the
    /// receive watches exactly the right lanes. Fails with
    /// [`ShutdownKind::Disconnected`] when every matchable peer is gone,
    /// or [`ShutdownKind::Aborted`] when the runtime abort flag is up.
    pub(crate) fn try_recv(
        &mut self,
        comm_id: u64,
        src: Source,
        tag: Tag,
        members: &[usize],
        monitor: &RankMonitor,
        stats: &RankStats,
    ) -> Result<Option<Packet>, ShutdownError> {
        match src {
            Source::Rank(q) => self.try_recv_on(comm_id, src, tag, &[members[q]], monitor, stats),
            Source::Any => self.try_recv_on(comm_id, src, tag, members, monitor, stats),
        }
    }
}

/// Builds the transport for `p` ranks: `p` mailboxes of
/// `p` lanes each, the sender matrix grouped by **source** rank
/// (`senders[s][d]` sends s→d), and each rank's parker (the runtime
/// unparks them all when raising the abort flag).
pub(crate) fn build_lane_transport(
    p: usize,
) -> (Vec<Mailbox>, Vec<Vec<PeerSender>>, Vec<Arc<Parker>>) {
    let spin_limit = gv_executor::lane::suggested_spin_limit();
    let mut tx_rows: Vec<Vec<PeerSender>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut mailboxes = Vec::with_capacity(p);
    let mut parkers = Vec::with_capacity(p);
    for _d in 0..p {
        let parker = Arc::new(Parker::new());
        let mut lanes = Vec::with_capacity(p);
        for row in tx_rows.iter_mut() {
            let (tx, rx) = lane::<Packet>(LANE_CAPACITY, Arc::clone(&parker));
            lanes.push(LaneState::new(rx));
            row.push(tx);
        }
        mailboxes.push(Mailbox {
            lanes,
            parker: Arc::clone(&parker),
            spin_limit,
            held_stashed: 0,
        });
        parkers.push(parker);
    }
    (mailboxes, tx_rows, parkers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use crate::stats::Stats;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn packet(comm_id: u64, src: usize, tag: Tag, value: i32) -> Packet {
        Packet {
            comm_id,
            src: src as u32,
            tag,
            sent_at: 0.0,
            bytes: 4,
            hold_until: None,
            payload: Payload::new(value),
        }
    }

    fn value_of(p: Packet) -> i32 {
        p.payload.take::<i32>().ok().expect("an i32 payload")
    }

    /// A blocking receive the way `Comm` makes one: a matching pass, and
    /// one backoff step after each miss (no engine to sweep down here).
    fn recv_blocking(
        mailbox: &mut Mailbox,
        comm_id: u64,
        src: Source,
        tag: Tag,
        members: &[usize],
        monitor: &RankMonitor,
        stats: &RankStats,
    ) -> Result<Packet, ShutdownError> {
        let mut wait = WaitState::default();
        loop {
            if let Some(packet) = mailbox.try_recv(comm_id, src, tag, members, monitor, stats)? {
                return Ok(packet);
            }
            mailbox.backoff_step(&mut wait, monitor, stats);
        }
    }

    struct Harness {
        mailboxes: Vec<Mailbox>,
        senders: Vec<Vec<PeerSender>>,
        stats: Stats,
        aborted: Arc<AtomicBool>,
        monitor: RankMonitor,
        members: Vec<usize>,
    }

    impl Harness {
        fn lanes(p: usize) -> Self {
            let (mailboxes, senders, _parkers) = build_lane_transport(p);
            let aborted = Arc::new(AtomicBool::new(false));
            Harness {
                mailboxes,
                senders,
                stats: Stats::new(1),
                monitor: RankMonitor::detached(Arc::clone(&aborted)),
                aborted,
                members: (0..p).collect(),
            }
        }

        fn send(&self, s: usize, d: usize, comm: u64, tag: Tag, value: i32) {
            send(&self.senders[s][d], packet(comm, s, tag, value), self.stats.rank(0));
        }

        fn send_held(&self, s: usize, d: usize, comm: u64, tag: Tag, value: i32, hold: Duration) {
            let mut p = packet(comm, s, tag, value);
            p.hold_until = Some(Box::new(Instant::now() + hold));
            send(&self.senders[s][d], p, self.stats.rank(0));
        }

        fn recv(&mut self, d: usize, comm: u64, src: Source, tag: Tag) -> Result<i32, ShutdownError> {
            let stats = self.stats.rank(0);
            recv_blocking(&mut self.mailboxes[d], comm, src, tag, &self.members, &self.monitor, stats)
                .map(value_of)
        }
    }

    #[test]
    fn matching_by_source_and_tag() {
        let mut h = Harness::lanes(3);
        h.send(1, 0, 0, 7, 10);
        h.send(2, 0, 0, 7, 20);
        h.send(1, 0, 0, 9, 30);
        assert_eq!(h.recv(0, 0, Source::Rank(2), 7), Ok(20));
        assert_eq!(h.recv(0, 0, Source::Rank(1), 9), Ok(30));
        assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(10));
    }

    #[test]
    fn any_source_delivers_every_pending_arrival() {
        // Both arrivals are delivered, each lane in order (cross-source
        // order is unordered by design).
        let mut h = Harness::lanes(5);
        h.send(3, 0, 0, 1, 33);
        h.send(4, 0, 0, 1, 44);
        let a = h.recv(0, 0, Source::Any, 1).unwrap();
        let b = h.recv(0, 0, Source::Any, 1).unwrap();
        let mut got = [a, b];
        got.sort_unstable();
        assert_eq!(got, [33, 44]);
    }

    #[test]
    fn non_overtaking_within_same_triple() {
        let mut h = Harness::lanes(2);
        for v in 0..5 {
            h.send(1, 0, 0, 7, v);
        }
        for v in 0..5 {
            assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(v));
        }
    }

    #[test]
    fn non_overtaking_survives_stashing() {
        let mut h = Harness::lanes(2);
        // Interleave two tags from one source; receive tag 8 first so
        // every tag-7 message goes through the stash, then check the
        // tag-7 order survived.
        for v in 0..4 {
            h.send(1, 0, 0, 7, v);
            h.send(1, 0, 0, 8, 100 + v);
        }
        for v in 0..4 {
            assert_eq!(h.recv(0, 0, Source::Rank(1), 8), Ok(100 + v));
        }
        for v in 0..4 {
            assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(v));
        }
    }

    #[test]
    fn communicator_ids_do_not_cross_talk() {
        let mut h = Harness::lanes(2);
        h.send(1, 0, 5, 7, 50);
        h.send(1, 0, 6, 7, 60);
        assert_eq!(h.recv(0, 6, Source::Rank(1), 7), Ok(60));
        assert_eq!(h.recv(0, 5, Source::Rank(1), 7), Ok(50));
    }

    #[test]
    fn disconnect_surfaces_as_shutdown_error_not_a_lost_message() {
        let mut h = Harness::lanes(2);
        h.send(1, 0, 0, 7, 10);
        h.senders.clear(); // every sending endpoint drops
        // The queued message is still delivered…
        assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(10));
        // …then the dead transport reports a typed shutdown.
        let err = h.recv(0, 0, Source::Rank(1), 7).unwrap_err();
        assert_eq!(err.kind, ShutdownKind::Disconnected);
        assert_eq!(err.comm, 0);
        assert_eq!(err.tag, 7);
        assert_eq!(err.rank, 0);
        assert_eq!(err.culprit, None);
        assert!(err.to_string().contains("shut down"), "{err}");
        assert!(err.to_string().contains("p2p"), "{err}");
    }

    #[test]
    fn abort_flag_surfaces_as_shutdown_error() {
        let mut h = Harness::lanes(2);
        h.aborted.store(true, Ordering::Relaxed);
        let err = h.recv(0, 0, Source::Any, 3).unwrap_err();
        assert_eq!(err.kind, ShutdownKind::Aborted);
    }

    #[test]
    fn lane_disconnect_is_per_source() {
        // Only the awaited source's exit matters:
        // rank 2 stays alive, rank 1 exits → recv(1) disconnects.
        let mut h = Harness::lanes(3);
        let rank1_endpoints = h.senders.remove(1);
        drop(rank1_endpoints);
        let err = h.recv(0, 0, Source::Rank(1), 7).unwrap_err();
        assert_eq!(err.kind, ShutdownKind::Disconnected);
        // A receive from the still-alive rank 2 completes (after the
        // remove(1) above, index 1 holds old rank 2's endpoints).
        send(&h.senders[1][0], packet(0, 2, 7, 5), h.stats.rank(0));
        assert_eq!(h.recv(0, 0, Source::Rank(2), 7), Ok(5));
    }

    #[test]
    fn parked_receiver_sees_peer_exit_as_disconnect() {
        // Satellite: peer exit while the receiver is parked in the
        // spin-then-park slow path.
        let (mut mailboxes, mut senders, _parkers) = build_lane_transport(2);
        let stats = Stats::new(1);
        let monitor = RankMonitor::detached(Arc::new(AtomicBool::new(false)));
        let peer = senders.remove(1); // rank 1's endpoints
        let holder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(peer); // rank 1 exits without sending
        });
        let err = recv_blocking(&mut mailboxes[0], 0, Source::Rank(1), 7, &[0, 1], &monitor, stats.rank(0))
            .unwrap_err();
        assert_eq!(err.kind, ShutdownKind::Disconnected);
        assert!(stats.snapshot().transport.parks > 0, "receiver never parked");
        holder.join().unwrap();
    }

    #[test]
    fn parked_receiver_sees_abort_flag() {
        // Satellite: peer panic → abort flag raised while the receiver is
        // parked; the runtime also unparks, here simulated explicitly.
        let (mut mailboxes, senders, parkers) = build_lane_transport(2);
        let stats = Stats::new(1);
        let aborted = Arc::new(AtomicBool::new(false));
        let monitor = RankMonitor::detached(Arc::clone(&aborted));
        let parker = Arc::clone(&parkers[0]);
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            aborted.store(true, Ordering::Relaxed);
            parker.unpark();
        });
        let started = std::time::Instant::now();
        let err = recv_blocking(&mut mailboxes[0], 0, Source::Rank(1), 7, &[0, 1], &monitor, stats.rank(0))
            .unwrap_err();
        assert_eq!(err.kind, ShutdownKind::Aborted);
        // The explicit unpark makes this prompt (well under the 50 ms
        // park timeout backstop plus scheduling slack).
        assert!(started.elapsed() < Duration::from_millis(500));
        raiser.join().unwrap();
        drop(senders);
    }

    #[test]
    fn overflow_burst_preserves_order_end_to_end() {
        // More messages than LANE_CAPACITY: the tail goes through the
        // overflow queue; order must hold across the boundary.
        let mut h = Harness::lanes(2);
        let n = (LANE_CAPACITY * 3) as i32;
        for v in 0..n {
            h.send(1, 0, 0, 7, v);
        }
        assert!(h.stats.snapshot().transport.overflow_sends > 0);
        for v in 0..n {
            assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(v));
        }
    }

    #[test]
    fn embargoed_packet_waits_out_its_hold() {
        let mut h = Harness::lanes(2);
        let started = Instant::now();
        h.send_held(1, 0, 0, 7, 42, Duration::from_millis(40));
        assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(42));
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "embargo was not honored: {:?}",
            started.elapsed()
        );
        assert!(h.stats.snapshot().transport.embargo_defers > 0);
    }

    #[test]
    fn embargo_preserves_fifo_within_triple() {
        let mut h = Harness::lanes(2);
        // A held head must not be overtaken by unheld packets behind
        // it on the same (comm, src, tag) triple.
        h.send_held(1, 0, 0, 7, 1, Duration::from_millis(30));
        h.send(1, 0, 0, 7, 2);
        h.send(1, 0, 0, 7, 3);
        assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(1));
        assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(2));
        assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(3));
    }

    #[test]
    fn embargoed_packet_survives_sender_exit() {
        // A held message from a sender that exits immediately afterwards
        // must still be delivered (not reported as a disconnect).
        let mut h = Harness::lanes(2);
        h.send_held(1, 0, 0, 7, 9, Duration::from_millis(30));
        h.senders.clear();
        assert_eq!(h.recv(0, 0, Source::Rank(1), 7), Ok(9));
        let err = h.recv(0, 0, Source::Rank(1), 7).unwrap_err();
        assert_eq!(err.kind, ShutdownKind::Disconnected);
    }

    #[test]
    fn embargo_does_not_block_other_triples() {
        let mut h = Harness::lanes(3);
        h.send_held(1, 0, 0, 7, 1, Duration::from_secs(30));
        h.send(2, 0, 0, 7, 2);
        // Same tag, different source: deliverable immediately.
        assert_eq!(h.recv(0, 0, Source::Rank(2), 7), Ok(2));
        // Different tag from the held source: also deliverable.
        h.send(1, 0, 0, 9, 3);
        assert_eq!(h.recv(0, 0, Source::Rank(1), 9), Ok(3));
    }
}
