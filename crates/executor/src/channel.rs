//! An in-tree unbounded MPMC channel (Mutex + Condvar).
//!
//! This replaces the external `crossbeam::channel` dependency for the
//! place the workspace needs a channel: the pool's job injector (many
//! producers, many consumers).
//!
//! Semantics match the crossbeam subset previously used:
//!
//! * [`Sender`] and [`Receiver`] are both clonable; the channel
//!   disconnects when either side's count drops to zero.
//! * [`Sender::send`] fails only when every receiver is gone.
//! * [`Receiver::recv`] drains remaining messages before reporting
//!   disconnection (a sender dropping never loses queued messages).
//!
//! A Mutex+Condvar queue is deliberately chosen over something lock-free
//! for the *pool* side: the executor submits `p` coarse jobs per parallel
//! region, so contention there is genuinely low and the simple
//! implementation is fully inspectable — in keeping with this
//! repository's rule that correctness-critical infrastructure is owned
//! code. The same assumption did **not** hold for rank-to-rank message
//! traffic, where every matched receive paid a lock handoff on the
//! latency-critical path; that role moved to the per-peer SPSC lanes in
//! [`crate::lane`] (see DESIGN.md, "Rank-to-rank transport"). This
//! channel remains the pool injector.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when all receivers are gone; the
/// unsent value is given back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Manual impl so `SendError<T>: Debug` without `T: Debug` — the pool's
// job type is an opaque `Box<dyn FnOnce()>`.
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv`] when the queue is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout; the channel is still open.
    Timeout,
    /// The queue is empty and all senders are gone.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    available: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A panic while holding this lock can only happen on an
        // allocation failure inside push_back; recovering the poisoned
        // state is always sound for a plain queue.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sending half; clonable. Dropping the last clone disconnects
/// blocked receivers once the queue drains.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; clonable (multiple consumers compete for
/// messages). Dropping the last clone makes subsequent sends fail.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        available: Condvar::new(),
    });
    (
        Sender { shared: Arc::clone(&shared) },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueues `value`, waking one blocked receiver. Fails (returning
    /// the value) only if every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        drop(state);
        self.shared.available.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake every blocked receiver so it can observe disconnection.
            self.shared.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message is available or the channel disconnects.
    /// Queued messages are always delivered before `Err(RecvError)`.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .shared
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Like [`recv`](Self::recv) with an upper bound on the wait.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _result) = self
                .shared
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    /// Removes an immediately available message, if any. Never blocks;
    /// `None` covers both "empty" and "disconnected".
    pub fn try_recv(&self) -> Option<T> {
        self.shared.lock().queue.pop_front()
    }

    /// Whether every sender has been dropped. Queued messages may still
    /// remain; callers should keep draining [`try_recv`](Self::try_recv)
    /// after observing disconnection.
    pub fn is_disconnected(&self) -> bool {
        self.shared.lock().senders == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_drains_queue_after_sender_drops() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        drop(rx);
        tx.send(1).unwrap();
        drop(rx2);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn blocked_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(10));
        tx.send(99u64).unwrap();
        assert_eq!(handle.join().unwrap(), Ok(99));
    }

    #[test]
    fn blocked_recv_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let handle = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(handle.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn multiple_consumers_partition_the_stream() {
        let (tx, rx) = unbounded();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..1000u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn clone_counts_keep_channel_alive() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap(); // one sender still alive
        assert_eq!(rx.recv(), Ok(5));
    }
}
