//! The one launch path every schedule-based collective takes.
//!
//! A collective call is always the same five steps — record the call,
//! draw its call sequence number, construct the schedule under the collective guard
//! (construction issues the initial sends), then either drive the
//! schedule on the caller's stack or register it with the rank's
//! progress engine. [`Comm::launch`] is those steps, once; the last one
//! is the [`Mode`] type parameter, so [`Comm::allreduce`] and
//! [`Comm::iallreduce`] — the one collective with a non-blocking form —
//! differ in that one token and nothing else.

use crate::comm::Comm;
use crate::request::{Request, Schedule};
use crate::stats::CallKind;

/// How a constructed schedule runs. `'a` bounds what the schedule may
/// borrow: anything for [`Blocking`] (the schedule never leaves the
/// caller's stack frame), `'static` for [`Nonblocking`] (the engine owns
/// it past the call).
pub(crate) trait Mode<'a> {
    /// What the entry point returns for a schedule producing `T`.
    type Handle<T: 'a>;

    fn start<S>(comm: &Comm, schedule: S) -> Self::Handle<S::Output>
    where
        S: Schedule + 'a,
        S::Output: 'a;
}

/// Drive to completion on the stack: no box, no `'static` bound.
pub(crate) struct Blocking;

/// Register with the progress engine and hand back a [`Request`].
pub(crate) struct Nonblocking;

impl<'a> Mode<'a> for Blocking {
    type Handle<T: 'a> = T;

    fn start<S>(comm: &Comm, schedule: S) -> S::Output
    where
        S: Schedule + 'a,
        S::Output: 'a,
    {
        crate::request::drive(comm, schedule)
    }
}

impl Mode<'static> for Nonblocking {
    type Handle<T: 'static> = Request<T>;

    fn start<S>(comm: &Comm, schedule: S) -> Request<S::Output>
    where
        S: Schedule + 'static,
        S::Output: 'static,
    {
        Request::register(comm, schedule)
    }
}

impl Comm {
    /// Launches one collective: `build` receives an owned communicator
    /// handle and the call's sequence number on it (from which its match
    /// keys are built) and returns the schedule; it runs
    /// under the collective guard, so the sends it issues are not
    /// counted as user sends.
    pub(crate) fn launch<'a, M, S>(
        &self,
        kind: CallKind,
        build: impl FnOnce(Comm, u64) -> S,
    ) -> M::Handle<S::Output>
    where
        M: Mode<'a>,
        S: Schedule + 'a,
        S::Output: 'a,
    {
        self.counters().record_call(kind);
        let seq = self.next_seq();
        let schedule = {
            let _guard = self.enter_collective();
            build(self.clone_handle(), seq)
        };
        M::start(self, schedule)
    }
}
