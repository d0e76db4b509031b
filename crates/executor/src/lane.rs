//! Bounded SPSC "lanes" with spin-then-park wakeup — the low-contention
//! transport primitive behind `gv-msgpass`'s per-peer mailbox lanes.
//!
//! A lane connects exactly one producer thread to exactly one consumer
//! thread through a bounded ring in which **the slot is the message**:
//! each slot is one 128-byte-aligned block holding a lap stamp and the
//! value side by side (Vyukov's bounded-queue slot in its SPSC form), and
//! the two cursors are private to their endpoints. The fast path takes no
//! lock and shares no counter: the producer writes the value and
//! publishes it with a release store of the slot's stamp, the consumer
//! claims it with an acquire load of the same stamp — a message moves one
//! slot across the core boundary and touches nothing else the peer owns.
//! When the ring is full the producer falls back to an overflow queue
//! (`Mutex<VecDeque>`), so a lane is never blocking and never lossy; ring
//! items are always older than overflow items, preserving FIFO order.
//!
//! # Stamp protocol
//!
//! Slot `i` serves positions `i`, `i + capacity`, `i + 2·capacity`, ….
//! For position `pos` its stamp reads `pos` while the slot is free for the
//! producer, `pos + 1` once the producer has published the value, and the
//! consumer restamps `pos + capacity` after moving the value out — which
//! is "free" for the slot's next lap. Capacity is at least 2, so the three
//! readings never coincide. Each stamp value is stored by exactly one
//! side, and only that store hands the slot's value cell to the other
//! side, so the cell always has a single owner.
//!
//! Blocking receives use a [`Parker`]: the consumer spins briefly on the
//! next slot's stamp (bounded — see [`suggested_spin_limit`]), then
//! parks on a Mutex+Condvar *eventcount*. One parker is shared by all
//! lanes feeding a consumer, so a receiver waiting on "any of my p lanes"
//! parks once and is woken by whichever producer delivers next. Parking
//! always uses a caller-supplied timeout, so a parked receiver can still
//! poll external conditions (the message-passing runtime's abort flag)
//! even if no producer ever wakes it — the Condvar fallback the shutdown
//! semantics rely on.
//!
//! Single-producer discipline is enforced by the type system: endpoints
//! are `Send` (they can be *moved* to the owning thread once) but neither
//! `Clone` nor `Sync`, so at most one thread can ever touch each side.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One ring slot: the lap stamp and the value it guards, together in a
/// block of their own. 128-byte alignment gives every slot its own pair
/// of cache lines (adjacent-line prefetching on current x86 parts moves
/// lines in pairs), so neighbouring slots never false-share and a message
/// is one block for the peer to fetch.
#[repr(C, align(128))]
struct Slot<T> {
    /// See the module docs, "Stamp protocol".
    stamp: AtomicUsize,
    /// Initialised exactly while the stamp reads "published".
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Where [`LaneSender::send`] deposited a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneDeposit {
    /// The lock-free ring had room — the fast path.
    Ring,
    /// The ring was full; the message went through the locked overflow
    /// queue. Order is still preserved.
    Overflow,
}

/// Error returned by [`LaneSender::send`] when the receiver is gone; the
/// unsent value is given back.
#[derive(PartialEq, Eq)]
pub struct LaneSendError<T>(pub T);

impl<T> std::fmt::Debug for LaneSendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LaneSendError(..)")
    }
}

/// An eventcount-style parker: consumers grab a ticket, re-check their
/// condition, and park; producers bump the ticket and wake sleepers.
///
/// The ticket protocol closes the classic lost-wakeup race without making
/// producers take a lock on the fast path: a producer that publishes and
/// bumps between the consumer's ticket grab and its park causes the park
/// to return immediately (the ticket is stale). Producers only touch the
/// mutex when a consumer is actually asleep.
#[derive(Debug, Default)]
pub struct Parker {
    /// Bumped by every [`unpark`](Self::unpark); parking with a stale
    /// ticket returns immediately.
    seq: AtomicU64,
    /// Whether a consumer is (about to be) asleep; producers skip the
    /// mutex entirely while this is false.
    sleeping: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    /// Creates a parker with no sleepers.
    pub fn new() -> Self {
        Parker::default()
    }

    /// Takes a ticket. Call *before* re-checking the wait condition; pass
    /// the ticket to [`park_timeout`](Self::park_timeout).
    pub fn ticket(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Parks the calling thread until an [`unpark`](Self::unpark) arrives
    /// or `timeout` elapses, whichever is first. Returns immediately if
    /// any unpark happened since `ticket` was taken.
    ///
    /// Spurious returns are allowed (and inevitable with a shared parker);
    /// callers must re-check their condition in a loop.
    pub fn park_timeout(&self, ticket: u64, timeout: Duration) {
        let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sleeping.store(true, Ordering::SeqCst);
        if self.seq.load(Ordering::SeqCst) != ticket {
            self.sleeping.store(false, Ordering::SeqCst);
            return;
        }
        let (guard, _) = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.sleeping.store(false, Ordering::SeqCst);
        drop(guard);
    }

    /// Wakes any parked consumer. Lock-free unless someone is asleep.
    pub fn unpark(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            // Taking (and releasing) the lock orders this notify after
            // the sleeper's wait(): either it is inside wait (the notify
            // below reaches it), or it has not yet stored `sleeping`
            // (then its ticket check sees our bump). Notify *after*
            // unlocking — signalling while holding the mutex makes the
            // woken thread collide with the held lock, costing an extra
            // futex round trip per wakeup.
            drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
        }
    }
}

struct Shared<T> {
    /// Ring storage; position `pos` lives in slot `pos & mask`.
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// FIFO spill for ring-full bursts. `overflow_len` mirrors the queue
    /// length so both sides can skip the lock when it is empty; only the
    /// producer can make it non-zero, only the consumer zero again.
    overflow: Mutex<VecDeque<T>>,
    overflow_len: AtomicUsize,
    /// Producer endpoint dropped.
    closed: AtomicBool,
    /// Consumer endpoint dropped.
    rx_alive: AtomicBool,
    parker: Arc<Parker>,
}

// SAFETY: everything but the slots' value cells is `Sync` by itself
// (atomics, a `Mutex`, an `Arc<Parker>`). A value cell is accessed only by
// the side its slot's stamp currently names (module docs, "Stamp
// protocol"): the producer after an acquire load reads "free", the
// consumer after an acquire load reads "published", each handing it over
// with a release store; and each side is a single thread because the
// endpoints are neither `Clone` nor `Sync`. Values cross threads, hence
// `T: Send`; no `&T` is ever shared, so `T: Sync` is not needed.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            // A stamp of `pos + 1` for a `pos` this slot serves means the
            // value was published and never taken; `pos` or
            // `pos + capacity` (both ≡ i) mean the cell is empty.
            if slot.stamp.get_mut().wrapping_sub(1) & self.mask == i {
                // SAFETY: `&mut self` — both endpoints are gone, so the
                // stamps are final, and "published" is exactly the state
                // in which the producer's `write` is the cell's last
                // access: the value is initialised and dropped only here.
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
        }
    }
}

/// The producing half of a lane. `Send` but deliberately neither `Clone`
/// nor `Sync`: exactly one thread may produce.
pub struct LaneSender<T> {
    shared: Arc<Shared<T>>,
    /// Next position to fill. Private to the producer; the `Cell` also
    /// keeps the endpoint `!Sync`.
    pos: Cell<usize>,
}

/// The consuming half of a lane. `Send` but neither `Clone` nor `Sync`.
pub struct LaneReceiver<T> {
    shared: Arc<Shared<T>>,
    /// Next position to take. Private to the consumer.
    pos: Cell<usize>,
}

/// Creates a lane with at least `capacity` ring slots (rounded up to a
/// power of two, minimum 2), waking `parker` on every deposit.
///
/// The parker is shared, not owned: a consumer that multiplexes several
/// lanes passes the same `Arc` to each so any producer can wake it.
pub fn lane<T: Send>(capacity: usize, parker: Arc<Parker>) -> (LaneSender<T>, LaneReceiver<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots = (0..cap)
        .map(|i| Slot {
            stamp: AtomicUsize::new(i),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let shared = Arc::new(Shared {
        slots,
        mask: cap - 1,
        overflow: Mutex::new(VecDeque::new()),
        overflow_len: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        rx_alive: AtomicBool::new(true),
        parker,
    });
    (
        LaneSender {
            shared: Arc::clone(&shared),
            pos: Cell::new(0),
        },
        LaneReceiver {
            shared,
            pos: Cell::new(0),
        },
    )
}

impl<T: Send> LaneSender<T> {
    /// Deposits `value`, waking the parker. Never blocks: a full ring
    /// spills to the overflow queue (order preserved). Fails only if the
    /// receiver has been dropped.
    pub fn send(&self, value: T) -> Result<LaneDeposit, LaneSendError<T>> {
        let s = &*self.shared;
        if !s.rx_alive.load(Ordering::Acquire) {
            return Err(LaneSendError(value));
        }
        let pos = self.pos.get();
        let slot = &s.slots[pos & s.mask];
        // The ring may only be used while the overflow is empty — ring
        // items must stay older than overflow items. Only this thread
        // pushes to the overflow, so a zero read here cannot go stale.
        let deposit = if s.overflow_len.load(Ordering::Acquire) == 0
            && slot.stamp.load(Ordering::Acquire) == pos
        {
            // SAFETY: the stamp reads "free for `pos`", stored either at
            // construction or by the consumer's release restamp after it
            // moved the previous lap's value out, so the cell is empty
            // and the consumer will not touch it again before it sees
            // `pos + 1`; we are the only producer.
            unsafe { (*slot.value.get()).write(value) };
            slot.stamp.store(pos.wrapping_add(1), Ordering::Release);
            self.pos.set(pos.wrapping_add(1));
            LaneDeposit::Ring
        } else {
            let mut q = s.overflow.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(value);
            s.overflow_len.store(q.len(), Ordering::Release);
            LaneDeposit::Overflow
        };
        s.parker.unpark();
        // The slot the next send will use was last written by the consumer
        // (its restamp, a lap ago), so its line sits in the consumer's
        // cache. Ask for it now, while this thread goes on to whatever it
        // does between two sends, rather than stall on it at the top of
        // the next one: whether the hardware hides that miss changes with
        // code placement from one build to the next, and was worth ±15 %
        // of a latency-bound run (EXPERIMENTS.md, TXT-WAIT).
        std::hint::black_box(
            s.slots[self.pos.get() & s.mask]
                .stamp
                .load(Ordering::Relaxed),
        );
        Ok(deposit)
    }
}

impl<T> Drop for LaneSender<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        self.shared.parker.unpark();
    }
}

impl<T: Send> LaneReceiver<T> {
    /// Takes the oldest available message, if any. Never blocks.
    pub fn try_recv(&mut self) -> Option<T> {
        let spilled = self.overflow_pending();
        self.take(spilled)
    }

    /// First step of [`try_recv`](Self::try_recv): whether the overflow
    /// queue held anything *before* the ring is looked at.
    ///
    /// The order is what keeps FIFO. The producer uses the ring only
    /// while the overflow is empty and only the consumer empties it, so
    /// overflow items seen here are younger than every ring item and
    /// older than anything the ring can receive until they are popped: if
    /// the ring check that follows finds nothing, nothing older exists.
    /// Loaded the other way round, a producer that fills the ring and
    /// spills between the two loads gets its overflow item delivered
    /// ahead of a whole ring of older ones.
    fn overflow_pending(&self) -> bool {
        self.shared.overflow_len.load(Ordering::Acquire) > 0
    }

    /// Second step: the ring slot at the cursor if it is published,
    /// otherwise the overflow front if step one saw one.
    fn take(&mut self, spilled: bool) -> Option<T> {
        let s = &*self.shared;
        let pos = self.pos.get();
        let slot = &s.slots[pos & s.mask];
        if slot.stamp.load(Ordering::Acquire) == pos.wrapping_add(1) {
            // SAFETY: the stamp reads "published for `pos`": the
            // producer's release store made its `write` visible, and it
            // will not touch the cell again until it sees the restamp
            // below. We are the only consumer and move the value out
            // exactly once, before handing the empty cell back.
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            slot.stamp
                .store(pos.wrapping_add(s.slots.len()), Ordering::Release);
            self.pos.set(pos.wrapping_add(1));
            return Some(value);
        }
        if spilled {
            let mut q = s.overflow.lock().unwrap_or_else(|e| e.into_inner());
            let value = q.pop_front();
            s.overflow_len.store(q.len(), Ordering::Release);
            return value;
        }
        None
    }

    /// Whether a message is ready (ring or overflow), without taking it.
    pub fn ready(&self) -> bool {
        let s = &*self.shared;
        let pos = self.pos.get();
        s.slots[pos & s.mask].stamp.load(Ordering::Acquire) == pos.wrapping_add(1)
            || s.overflow_len.load(Ordering::Acquire) > 0
    }

    /// Whether the producer endpoint has been dropped. Messages already
    /// deposited are still delivered by [`try_recv`](Self::try_recv);
    /// check `ready()`/`try_recv()` *after* observing `is_closed()` before
    /// declaring the lane drained.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// The parker producers of this lane wake on every deposit.
    pub fn parker(&self) -> &Arc<Parker> {
        &self.shared.parker
    }
}

impl<T> Drop for LaneReceiver<T> {
    fn drop(&mut self) {
        self.shared.rx_alive.store(false, Ordering::Release);
    }
}

/// How many times a receiver should re-poll its lanes before parking.
///
/// On a multi-core host a short spin catches the common case where the
/// producer is mid-`send` on another core, saving the park/unpark round
/// trip. With a single hardware thread spinning only steals cycles from
/// the very producer being waited on, so the right bound is (nearly)
/// zero and the receiver should yield/park straight away.
pub fn suggested_spin_limit() -> u32 {
    if crate::default_parallelism() > 1 {
        64
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair(cap: usize) -> (LaneSender<u64>, LaneReceiver<u64>) {
        lane(cap, Arc::new(Parker::new()))
    }

    #[test]
    fn ring_delivers_in_order() {
        let (tx, mut rx) = pair(8);
        for i in 0..6 {
            assert_eq!(tx.send(i), Ok(LaneDeposit::Ring));
        }
        for i in 0..6 {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn overflow_preserves_fifo_across_ring_refills() {
        let (tx, mut rx) = pair(2); // capacity 2
        assert_eq!(tx.send(0), Ok(LaneDeposit::Ring));
        assert_eq!(tx.send(1), Ok(LaneDeposit::Ring));
        assert_eq!(tx.send(2), Ok(LaneDeposit::Overflow));
        // Drain one ring slot; the next send must still go to overflow
        // (item 2 is older) or order would invert.
        assert_eq!(rx.try_recv(), Some(0));
        assert_eq!(tx.send(3), Ok(LaneDeposit::Overflow));
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
        // Overflow drained: the ring is usable again.
        assert_eq!(tx.send(4), Ok(LaneDeposit::Ring));
        assert_eq!(rx.try_recv(), Some(4));
    }

    #[test]
    fn closed_lane_still_drains() {
        let (tx, mut rx) = pair(4);
        tx.send(7).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.try_recv(), Some(7));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = pair(4);
        drop(rx);
        assert_eq!(tx.send(1), Err(LaneSendError(1)));
    }

    #[test]
    fn cross_thread_stream_spin_then_park() {
        // Capacity 2 and a million messages: every slot is reused half a
        // million times, the ring fills and the overflow takes over (and
        // drains) continually, and the consumer parks whenever it gets
        // ahead — the stamp hand-over under every interleaving the
        // scheduler offers.
        const MESSAGES: u64 = 1_000_000;
        let parker = Arc::new(Parker::new());
        let (tx, mut rx) = lane::<u64>(2, Arc::clone(&parker));
        let producer = std::thread::spawn(move || {
            for i in 0..MESSAGES {
                tx.send(i).unwrap();
                if i % 1000 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut expected = 0u64;
        while expected < MESSAGES {
            match rx.try_recv() {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => {
                    let ticket = parker.ticket();
                    if !rx.ready() {
                        parker.park_timeout(ticket, Duration::from_millis(50));
                    }
                }
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn park_returns_promptly_on_unpark() {
        let parker = Arc::new(Parker::new());
        let p2 = Arc::clone(&parker);
        let started = Instant::now();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p2.unpark();
        });
        let ticket = parker.ticket();
        parker.park_timeout(ticket, Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(2));
        waker.join().unwrap();
    }

    #[test]
    fn stale_ticket_does_not_park() {
        let parker = Parker::new();
        let ticket = parker.ticket();
        parker.unpark(); // bump before parking
        let started = Instant::now();
        parker.park_timeout(ticket, Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn park_timeout_elapses_without_unpark() {
        let parker = Parker::new();
        let ticket = parker.ticket();
        let started = Instant::now();
        parker.park_timeout(ticket, Duration::from_millis(20));
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    /// Counts its own drops, so a test can tell "dropped exactly once"
    /// from a leak (0) and from a double drop (2).
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn dropping_receiver_drops_undelivered_messages() {
        // Two values left in ring slots and one in the overflow queue:
        // nobody takes them, so the lane's own drop must — once each.
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = lane::<Counted>(2, Arc::new(Parker::new()));
        assert!(matches!(
            tx.send(Counted(Arc::clone(&drops))),
            Ok(LaneDeposit::Ring)
        ));
        assert!(matches!(
            tx.send(Counted(Arc::clone(&drops))),
            Ok(LaneDeposit::Ring)
        ));
        assert!(matches!(
            tx.send(Counted(Arc::clone(&drops))),
            Ok(LaneDeposit::Overflow)
        ));
        drop(rx);
        assert_eq!(drops.load(Ordering::Relaxed), 0, "still owned by the lane");
        drop(tx);
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn every_value_is_dropped_exactly_once_through_wrap_around() {
        // Several laps of every slot, with the ring left at every fill
        // level in turn: a taken value is dropped by its taker, a value
        // left behind by the lane, none twice and none never. A stamp
        // misread as "published" on an empty slot would double-drop here;
        // one misread as "free" would leak.
        for cap in [2usize, 32] {
            let drops = Arc::new(AtomicUsize::new(0));
            let mut sent = 0usize;
            let mut taken = 0usize;
            for left_behind in 0..=cap {
                let (tx, mut rx) = lane::<Counted>(cap, Arc::new(Parker::new()));
                for lap in 0..3 * cap + 1 {
                    // Uneven bursts move the cursors through every
                    // offset of the ring.
                    let burst = 1 + lap % cap;
                    for _ in 0..burst {
                        assert!(matches!(
                            tx.send(Counted(Arc::clone(&drops))),
                            Ok(LaneDeposit::Ring)
                        ));
                        sent += 1;
                    }
                    for _ in 0..burst {
                        drop(rx.try_recv().expect("a sent value is receivable"));
                        taken += 1;
                        assert_eq!(drops.load(Ordering::Relaxed), taken);
                    }
                    assert!(rx.try_recv().is_none());
                }
                for _ in 0..left_behind {
                    tx.send(Counted(Arc::clone(&drops))).unwrap();
                    sent += 1;
                }
                drop(tx);
                drop(rx);
                taken += left_behind;
                assert_eq!(drops.load(Ordering::Relaxed), taken, "cap {cap}");
            }
            assert_eq!(sent, taken);
        }
    }

    #[test]
    fn a_burst_between_the_two_receive_steps_keeps_fifo() {
        // The interleaving a descheduled consumer meets: it has done the
        // first step of `try_recv` (overflow empty), then the producer
        // fills the ring and spills one more, then the consumer resumes.
        // With the overflow looked at *after* an empty ring check instead,
        // the spilled item — the youngest of all — would come out first.
        for cap in [2usize, 32] {
            let (tx, mut rx) = pair(cap);
            let spilled = rx.overflow_pending();
            for i in 0..cap as u64 {
                assert_eq!(tx.send(i), Ok(LaneDeposit::Ring));
            }
            assert_eq!(tx.send(cap as u64), Ok(LaneDeposit::Overflow));
            assert_eq!(rx.take(spilled), Some(0));
            for i in 1..=cap as u64 {
                assert_eq!(rx.try_recv(), Some(i));
            }
            assert_eq!(rx.try_recv(), None);
        }
    }
}
