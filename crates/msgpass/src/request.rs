//! Non-blocking collectives: request handles and the per-rank progress
//! engine.
//!
//! Every collective algorithm in `collectives/` is one `async fn`
//! returning `Result<T, ShutdownError>`, whose only suspension point is
//! `recv`. Calling it sends nothing: its first poll issues the initial
//! sends, and each later poll resumes at the receive it stopped at. Polls
//! use a no-op waker, since every wait loop re-polls. The blocking entry
//! points *drive* such a future pinned on the stack (`drive`); the one
//! non-blocking entry point, [`Comm::iallreduce`](crate::comm::Comm::iallreduce),
//! boxes it into the rank's [`Engine`] and hands back a [`Request`] to
//! [`wait`](Request::wait) or [`test`](Request::test) later.
//!
//! # Progress
//!
//! A rank's engine is advanced whenever the rank is inside the library.
//! Everything that blocks — a plain receive, a blocking collective,
//! `wait`/`wait_timeout`/`wait_all` — is the same loop, `Comm::wait_until`,
//! over a different attempt (one matching pass, one poll of the
//! schedule, the request's harvest), and that loop sweeps the engine
//! after every attempt that missed; `test`/`test_any` sweep it once. So k
//! in-flight allreduces pipeline — each sweep advances every schedule as
//! far as its arrived messages allow — instead of serializing behind
//! whichever one is waited first.
//!
//! # Completion batching
//!
//! One engine sweep may complete any number of requests; their outputs
//! park in the engine's slots until the owning [`Request`] collects them.
//! [`wait_all`] and [`test_any`] harvest, each time they look, every
//! completion the sweeps have produced so far, so completion order never
//! constrains delivery order.
//!
//! # Cancellation
//!
//! Dropping a [`Request`] without waiting *detaches* its schedule: the
//! engine keeps advancing it opportunistically (its peers may depend on
//! its sends), and the runtime drops whatever is left, suspended future
//! and all, when the rank's closure returns. A schedule whose peers
//! exited mid-flight fails with the transport's typed [`ShutdownError`],
//! surfaced as [`RequestError::Shutdown`] at the next wait/test.

use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::future::{poll_fn, Future};
use std::marker::PhantomData;
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;

/// What an engine slot runs: a schedule whose output is boxed.
type Erased = Pin<Box<dyn Future<Output = Result<Box<dyn Any>, ShutdownError>>>>;

/// The one suspension point of every schedule: receives the `T` that
/// `src` sent under `key`, pending until it has arrived.
pub(crate) fn recv<T: 'static>(
    comm: &Comm,
    src: usize,
    key: Key,
) -> impl Future<Output = Result<T, ShutdownError>> + '_ {
    poll_fn(move |_| {
        comm.try_recv_schedule(src, key)
            .transpose()
            .map_or(Poll::Pending, Poll::Ready)
    })
}

/// Polls `schedule` once with the no-op waker, marked as inside a
/// collective (so its sends are not counted as user sends): `Ok(None)`
/// while it waits for a message.
fn poll_once<T, F>(comm: &Comm, schedule: Pin<&mut F>) -> Result<Option<T>, ShutdownError>
where
    F: Future<Output = Result<T, ShutdownError>> + ?Sized,
{
    let _guard = comm.in_collective();
    match schedule.poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out.map(Some),
        Poll::Pending => Ok(None),
    }
}

/// Why a request could not deliver its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The schedule can never complete: the transport shut down under it
    /// (a peer exited or the runtime aborted).
    Shutdown(ShutdownError),
    /// The request's result was already taken by an earlier successful
    /// `wait`/`test` (waiting twice is a caller bug, reported typed
    /// instead of hanging).
    AlreadyCompleted,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Shutdown(err) => write!(f, "request shut down: {err}"),
            RequestError::AlreadyCompleted => {
                f.write_str("request already completed: its result was taken by an earlier wait")
            }
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Shutdown(err) => Some(err),
            RequestError::AlreadyCompleted => None,
        }
    }
}

/// One engine slot's lifecycle.
enum SlotState {
    /// The schedule is live and will be polled by the next sweep.
    Running(Erased),
    /// Temporarily taken out by [`poll_slot`] (so a schedule's own
    /// callbacks can never observe a held engine borrow).
    Polling,
    /// Completed, or failed with a transport shutdown; the result waits
    /// for its request.
    Done(Result<Box<dyn Any>, ShutdownError>),
}

struct Slot {
    state: SlotState,
    /// The owning [`Request`] was dropped without waiting: keep polling
    /// (peers may need this schedule's sends), discard any output, and
    /// let the runtime cancel the remainder at rank exit.
    detached: bool,
}

/// The per-rank progress engine: a table of in-flight schedules.
#[derive(Default)]
pub(crate) struct Engine {
    /// Slots in registration order (BTreeMap keeps sweeps deterministic).
    slots: BTreeMap<u64, Slot>,
    next_id: u64,
    /// Slots currently `Running`/`Polling` — the cheap idle check that
    /// makes a sweep free for blocking-only workloads.
    live: usize,
}

impl Engine {
    pub(crate) fn is_idle(&self) -> bool {
        self.live == 0
    }

    fn register(&mut self, schedule: Erased) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.insert(
            id,
            Slot {
                state: SlotState::Running(schedule),
                detached: false,
            },
        );
        self.live += 1;
        id
    }

    fn running_ids(&self) -> Vec<u64> {
        self.slots
            .iter()
            .filter(|(_, slot)| matches!(slot.state, SlotState::Running(_)))
            .map(|(&id, _)| id)
            .collect()
    }

    fn take_running(&mut self, id: u64) -> Option<Erased> {
        let slot = self.slots.get_mut(&id)?;
        match std::mem::replace(&mut slot.state, SlotState::Polling) {
            SlotState::Running(schedule) => Some(schedule),
            other => {
                slot.state = other;
                None
            }
        }
    }

    fn reinstall(&mut self, id: u64, schedule: Erased) {
        if let Some(slot) = self.slots.get_mut(&id) {
            slot.state = SlotState::Running(schedule);
        }
    }

    /// Records that `id`'s schedule ended in `state` (`Done`); a
    /// detached slot is dropped instead.
    fn finish(&mut self, id: u64, state: SlotState) {
        self.live -= 1;
        let Some(slot) = self.slots.get_mut(&id) else {
            return;
        };
        if slot.detached {
            self.slots.remove(&id);
        } else {
            slot.state = state;
        }
    }

    /// Takes the finished result of `id`, removing the slot. `None` while
    /// still in flight (or already taken — the request's own `consumed`
    /// flag distinguishes that case before calling here).
    fn take_output(&mut self, id: u64) -> Option<Result<Box<dyn Any>, ShutdownError>> {
        if !matches!(self.slots.get(&id)?.state, SlotState::Done(_)) {
            return None;
        }
        match self.slots.remove(&id)?.state {
            SlotState::Done(result) => Some(result),
            SlotState::Running(_) | SlotState::Polling => unreachable!("checked above"),
        }
    }

    fn detach(&mut self, id: u64) {
        let Some(slot) = self.slots.get_mut(&id) else {
            return;
        };
        match slot.state {
            SlotState::Running(_) | SlotState::Polling => slot.detached = true,
            SlotState::Done(_) => {
                self.slots.remove(&id);
            }
        }
    }

    /// Drops every slot — live schedules are cancelled. Called by the
    /// runtime when the rank's closure returns (also breaking the
    /// `Comm → Engine → Comm` reference cycle the boxed schedules form).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

/// Sweeps the rank's engine once: first sends what a fault plan holds
/// at this rank and is due, then polls every running schedule and
/// advances it as far as its arrived messages allow. Cheap no-op while
/// no requests are live and nothing is held. Progress is observable
/// through the rank's packet progress counter, which is how
/// `Comm::wait_until` reads it.
pub(crate) fn poll_engine(comm: &Comm) {
    comm.release_held(false);
    if comm.engine().borrow().is_idle() {
        return;
    }
    let ids = comm.engine().borrow().running_ids();
    for id in ids {
        poll_slot(comm, id);
    }
}

/// Polls one slot, with the schedule taken *out* of the engine for the
/// duration so nothing the schedule calls back into can observe a held
/// engine borrow.
fn poll_slot(comm: &Comm, id: u64) {
    let Some(mut schedule) = comm.engine().borrow_mut().take_running(id) else {
        return;
    };
    let result = poll_once(comm, schedule.as_mut());
    let mut engine = comm.engine().borrow_mut();
    match result {
        Ok(Some(output)) => {
            comm.counters().record_request_completed();
            engine.finish(id, SlotState::Done(Ok(output)));
        }
        Ok(None) => engine.reinstall(id, schedule),
        Err(err) => engine.finish(id, SlotState::Done(Err(err))),
    }
}

/// Drives `schedule` to completion pinned on the stack: a blocking
/// collective is `Comm::wait_until` its schedule is ready, counted as one
/// request started and completed. Background requests keep progressing
/// meanwhile, and a transport shutdown unwinds the rank with the typed
/// [`ShutdownError`] payload, exactly like a blocking receive.
pub(crate) fn drive<T>(comm: &Comm, schedule: impl Future<Output = Result<T, ShutdownError>>) -> T {
    comm.counters().record_request_started();
    let mut schedule = pin!(schedule);
    let out = comm.wait_until(|| poll_once(comm, schedule.as_mut()));
    comm.counters().record_request_completed();
    out
}

/// A handle to an in-flight non-blocking collective, in the sense of
/// MPI's `MPI_Request`.
///
/// The result is delivered exactly once, through [`wait`](Request::wait),
/// [`test`](Request::test), [`wait_all`], or [`test_any`]; asking again
/// yields [`RequestError::AlreadyCompleted`]. Dropping a request without
/// waiting cancels interest in the result: the schedule keeps running in
/// the background (peers may depend on its sends) and is cancelled when
/// the rank's closure returns.
pub struct Request<T> {
    comm: Comm,
    id: u64,
    /// The result was delivered (a `Cell`, so the wait loop's attempt can
    /// harvest through the same `&self` the loop's communicator borrows).
    consumed: Cell<bool>,
    _out: PhantomData<T>,
}

impl<T: 'static> Request<T> {
    /// Boxes `schedule` into the rank's engine and polls it once: the
    /// poll issues its initial sends, and a schedule that can complete
    /// immediately — `p == 1`, say — already has its result parked.
    pub(crate) fn register(
        comm: &Comm,
        schedule: impl Future<Output = Result<T, ShutdownError>> + 'static,
    ) -> Request<T> {
        comm.counters().record_request_started();
        let erased = Box::pin(async move { Ok(Box::new(schedule.await?) as Box<dyn Any>) });
        let id = comm.engine().borrow_mut().register(erased);
        poll_slot(comm, id);
        Request {
            comm: comm.clone_handle(),
            id,
            consumed: Cell::new(false),
            _out: PhantomData,
        }
    }

    /// Takes this request's finished result out of the engine, if ready.
    fn harvest(&self) -> Option<Result<T, RequestError>> {
        let result = self.comm.engine().borrow_mut().take_output(self.id)?;
        self.consumed.set(true);
        Some(match result {
            Ok(out) => Ok(*out.downcast().expect("register boxed a T")),
            Err(err) => Err(RequestError::Shutdown(err)),
        })
    }

    /// Blocks until the collective completes and returns its result.
    /// While waiting, the whole engine keeps progressing, so other
    /// in-flight requests pipeline rather than queue behind this one.
    pub fn wait(&mut self) -> Result<T, RequestError> {
        let result = self.wait_by(None)?;
        Ok(result.expect("a wait without a deadline ends only in a result"))
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout`, returning
    /// `Ok(None)` with the request still in flight (a later `wait`,
    /// `wait_timeout`, or `test` can still deliver the result).
    ///
    /// The engine keeps progressing throughout, so a timed-out wait never
    /// stalls other in-flight requests. The deadline is checked between
    /// backoff steps and never before the engine has been swept once: the
    /// call can overshoot `timeout` by about one park (the runtime's
    /// configured park timeout, 50 ms by default), and even a zero
    /// timeout delivers a result whose messages have all arrived.
    /// Transport shutdown surfaces as [`RequestError::Shutdown`]
    /// immediately, whatever the timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Option<T>, RequestError> {
        self.wait_by(Some(Instant::now() + timeout))
    }

    /// The rank's wait loop over this request's harvest, the deadline
    /// riding in the attempt: `Ok(None)` means it passed.
    fn wait_by(&self, deadline: Option<Instant>) -> Result<Option<T>, RequestError> {
        if self.consumed.get() {
            return Err(RequestError::AlreadyCompleted);
        }
        let mut swept = false;
        self.comm.wait_until(|| {
            if let Some(result) = self.harvest() {
                return Ok(Some(result.map(Some)));
            }
            // The loop sweeps the engine after every miss, so from the
            // second attempt on a sweep has preceded this check.
            let expired = swept && deadline.is_some_and(|at| Instant::now() >= at);
            swept = true;
            Ok(expired.then_some(Ok(None)))
        })
    }

    /// One non-blocking completion check: sweeps the engine once and
    /// returns the result if this request finished.
    pub fn test(&mut self) -> Result<Option<T>, RequestError> {
        if self.consumed.get() {
            return Err(RequestError::AlreadyCompleted);
        }
        poll_engine(&self.comm);
        self.harvest().transpose()
    }
}

impl<T> Drop for Request<T> {
    fn drop(&mut self) {
        if self.consumed.get() {
            return;
        }
        // `try_borrow_mut` so dropping a request while the rank unwinds
        // through a schedule poll can never double-panic.
        if let Ok(mut engine) = self.comm.engine().try_borrow_mut() {
            engine.detach(self.id);
        }
    }
}

impl<T> fmt::Debug for Request<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request")
            .field("id", &self.id)
            .field("consumed", &self.consumed.get())
            .finish_non_exhaustive()
    }
}

/// Waits for every request, returning results in *request* order however
/// the schedules actually finished. Each engine sweep harvests all
/// completions it produced (batched completion) before deciding whether
/// to back off.
///
/// Fails with [`RequestError::AlreadyCompleted`] if any request was
/// already waited, and with the first [`RequestError::Shutdown`]
/// encountered if the transport dies mid-wait (later results are then
/// discarded).
pub fn wait_all<T: 'static>(requests: &mut [Request<T>]) -> Result<Vec<T>, RequestError> {
    if requests.iter().any(|r| r.consumed.get()) {
        return Err(RequestError::AlreadyCompleted);
    }
    let Some(first) = requests.first() else {
        return Ok(Vec::new());
    };
    let mut outputs: Vec<Option<T>> = std::iter::repeat_with(|| None)
        .take(requests.len())
        .collect();
    let mut remaining = requests.len();
    first.comm.wait_until(|| {
        for (slot, req) in outputs.iter_mut().zip(requests.iter()) {
            if slot.is_none() {
                match req.harvest() {
                    Some(Ok(out)) => {
                        *slot = Some(out);
                        remaining -= 1;
                    }
                    Some(Err(err)) => return Ok(Some(Err(err))),
                    None => {}
                }
            }
        }
        Ok((remaining == 0).then(|| {
            Ok(outputs
                .iter_mut()
                .map(|o| o.take().expect("harvested"))
                .collect())
        }))
    })
}

/// One non-blocking sweep over `requests`: returns the index and result
/// of the first request found completed, if any. Already-consumed
/// requests are skipped (so a drain loop can call this repeatedly);
/// `Ok(None)` means "none newly completed" — including the case where
/// every request was already consumed.
pub fn test_any<T: 'static>(
    requests: &mut [Request<T>],
) -> Result<Option<(usize, T)>, RequestError> {
    let Some(live) = requests.iter().find(|r| !r.consumed.get()) else {
        return Ok(None);
    };
    poll_engine(&live.comm);
    for (i, req) in requests.iter().enumerate() {
        if req.consumed.get() {
            continue;
        }
        if let Some(result) = req.harvest() {
            return result.map(|out| Some((i, out)));
        }
    }
    Ok(None)
}
