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
//! Each request owns the slot its schedule writes its result into. One
//! engine sweep may fill any number of slots; each result waits there
//! until its [`Request`] collects it. [`wait_all`] and [`test_any`]
//! harvest, each time they look, every slot the sweeps have filled so
//! far, so completion order never constrains delivery order.
//!
//! # Cancellation
//!
//! Dropping a [`Request`] without waiting detaches its schedule by
//! construction: the engine keeps advancing it opportunistically (its
//! peers may depend on its sends), and its result lands in a slot nobody
//! reads. The runtime drops whatever is left, suspended future and all,
//! when the rank's closure returns. A schedule whose peers exited
//! mid-flight fails with the transport's typed [`ShutdownError`],
//! surfaced as [`RequestError::Shutdown`] at the next wait/test.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Key;

/// Where a schedule leaves its result for its request, with the modeled
/// time the result is ready at.
type Slot<T> = Rc<RefCell<Option<(Result<T, ShutdownError>, f64)>>>;

/// A registered schedule, wrapped to fill its request's slot: outputs
/// whether it delivered a result.
type Task = Pin<Box<dyn Future<Output = bool>>>;

/// The per-rank progress engine: the in-flight schedules, in
/// registration order. A schedule leaves the queue when it ends.
pub(crate) type Engine = VecDeque<Task>;

/// The one suspension point of every schedule: receives the `T` that
/// `src` sent under `key`, pending until it has arrived — and always
/// pending in a request's launch poll ([`Launch`]).
pub(crate) fn recv<T: 'static>(
    comm: &Comm,
    src: usize,
    key: Key,
) -> impl Future<Output = Result<T, ShutdownError>> + '_ {
    receive(comm, src, key, false)
}

/// [`recv`] for a schedule's last receive, when nothing the schedule does
/// waits on the message: it must be the schedule's last await. The
/// rank's clock rises to the message's availability only when the result
/// is taken — at once for a blocking call, at the harvest for a request —
/// so a request's final message, taken early in a sweep, does not delay
/// in modeled time the sends the rank's other requests make after it.
pub(crate) fn recv_last<T: 'static>(
    comm: &Comm,
    src: usize,
    key: Key,
) -> impl Future<Output = Result<T, ShutdownError>> + '_ {
    receive(comm, src, key, true)
}

fn receive<T: 'static>(
    comm: &Comm,
    src: usize,
    key: Key,
    last: bool,
) -> impl Future<Output = Result<T, ShutdownError>> + '_ {
    poll_fn(move |_| {
        if comm.launching().get() {
            return Poll::Pending;
        }
        comm.try_recv_schedule(src, key, last)
            .transpose()
            .map_or(Poll::Pending, Poll::Ready)
    })
}

/// Polls `schedule` once with the no-op waker.
fn poll_once<F: Future + ?Sized>(schedule: Pin<&mut F>) -> Poll<F::Output> {
    schedule.poll(&mut Context::from_waker(Waker::noop()))
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

/// Sweeps the rank's engine once: first sends what a fault plan holds
/// at this rank and is due, then takes one turn of the queue — pops each
/// schedule, advances it as far as its arrived messages allow, and pushes
/// it back while it is pending. A schedule is out of the queue while it
/// runs, so a wait inside it (a combine that blocks) sweeps every other
/// live schedule and never meets a held borrow. Cheap no-op while no
/// requests are live and nothing is held; allocates nothing.
pub(crate) fn poll_engine(comm: &Comm) {
    comm.release_held(false);
    let turn = comm.engine().borrow().len();
    for _ in 0..turn {
        let Some(schedule) = comm.engine().borrow_mut().pop_front() else {
            return;
        };
        advance(comm, schedule);
    }
}

/// Polls one schedule: pushes it to the back of the queue while it is
/// pending, and counts its completion when it delivered a result.
fn advance(comm: &Comm, mut schedule: Task) {
    match poll_once(schedule.as_mut()) {
        Poll::Pending => comm.engine().borrow_mut().push_back(schedule),
        Poll::Ready(true) => comm.counters().record_request_completed(),
        Poll::Ready(false) => {}
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
    let out = comm.wait_until(|| match poll_once(schedule.as_mut()) {
        Poll::Ready(out) => out.map(Some),
        Poll::Pending => Ok(None),
    });
    comm.bump_clock_to(comm.take_deferred());
    comm.counters().record_request_completed();
    out
}

/// Marks a request's launch poll for its duration: its receives stay
/// pending, so the poll only issues the schedule's initial sends. A rank
/// launching several requests then puts every launch's sends on its links
/// before any send a received message triggers, and no early arrival
/// raises its modeled clock before its later launches send.
struct Launch<'a>(&'a Comm);

impl<'a> Launch<'a> {
    fn enter(comm: &'a Comm) -> Self {
        comm.launching().set(true);
        Launch(comm)
    }
}

impl Drop for Launch<'_> {
    fn drop(&mut self) {
        self.0.launching().set(false);
    }
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
    /// Filled by the schedule when it ends.
    slot: Slot<T>,
    /// The result was delivered (a `Cell`, so the wait loop's attempt can
    /// harvest through the same `&self` the loop's communicator borrows).
    consumed: Cell<bool>,
}

impl<T: 'static> Request<T> {
    /// Boxes `schedule`, wrapped to fill the request's slot, and polls it
    /// once: the poll issues its initial sends and receives nothing
    /// ([`Launch`]), and a schedule that completes at once — `p == 1`,
    /// say — fills the slot and never enters the engine.
    pub(crate) fn register(
        comm: &Comm,
        schedule: impl Future<Output = Result<T, ShutdownError>> + 'static,
    ) -> Request<T> {
        comm.counters().record_request_started();
        let slot: Slot<T> = Rc::default();
        let filled = Rc::clone(&slot);
        let handle = comm.clone_handle();
        let _launch = Launch::enter(comm);
        advance(
            comm,
            Box::pin(async move {
                let out = schedule.await;
                let delivered = out.is_ok();
                *filled.borrow_mut() = Some((out, handle.take_deferred()));
                delivered
            }),
        );
        Request {
            comm: comm.clone_handle(),
            slot,
            consumed: Cell::new(false),
        }
    }

    /// Takes this request's result out of its slot, if filled, and
    /// raises the clock to the time it was ready at.
    fn harvest(&self) -> Option<Result<T, RequestError>> {
        let (result, ready) = self.slot.borrow_mut().take()?;
        self.consumed.set(true);
        self.comm.bump_clock_to(ready);
        Some(result.map_err(RequestError::Shutdown))
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

impl<T> fmt::Debug for Request<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request")
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
