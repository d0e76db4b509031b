//! The one launch path every schedule-based collective takes.
//!
//! A collective call is always the same five steps — record the call,
//! draw its call sequence number, count it as one collective entry (the
//! collective guard), build the schedule's future, then either drive it
//! on the caller's stack or register it with the rank's progress engine.
//! Building sends nothing: the first poll, which both modes make at
//! once, issues the initial sends. [`Comm::launch`] is those steps, once;
//! the last one is the [`Mode`] type parameter, so [`Comm::allreduce`]
//! and [`Comm::iallreduce`] — the one collective with a non-blocking form
//! — launch alike, and differ only in that token and in the rule that
//! picks their schedule (`select.rs`).

use std::future::Future;

use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::request::Request;
use crate::stats::CallKind;

/// How a schedule runs. `'a` bounds what the schedule may borrow:
/// anything for [`Blocking`] (the future never leaves the caller's stack
/// frame), `'static` for [`Nonblocking`] (the engine owns it past the
/// call).
pub(crate) trait Mode<'a> {
    /// What the entry point returns for a schedule producing `T`.
    type Handle<T: 'a>;

    fn start<T: 'a>(
        comm: &Comm,
        schedule: impl Future<Output = Result<T, ShutdownError>> + 'a,
    ) -> Self::Handle<T>;
}

/// Drive to completion on the stack: no box, no `'static` bound.
pub(crate) struct Blocking;

/// Register with the progress engine and hand back a [`Request`].
pub(crate) struct Nonblocking;

impl<'a> Mode<'a> for Blocking {
    type Handle<T: 'a> = T;

    fn start<T: 'a>(
        comm: &Comm,
        schedule: impl Future<Output = Result<T, ShutdownError>> + 'a,
    ) -> T {
        crate::request::drive(comm, schedule)
    }
}

impl Mode<'static> for Nonblocking {
    type Handle<T: 'static> = Request<T>;

    fn start<T: 'static>(
        comm: &Comm,
        schedule: impl Future<Output = Result<T, ShutdownError>> + 'static,
    ) -> Request<T> {
        Request::register(comm, schedule)
    }
}

impl Comm {
    /// Launches one collective: `build` receives an owned communicator
    /// handle and the call's sequence number on it (from which its match
    /// keys are built) and returns the schedule's future.
    pub(crate) fn launch<'a, M, T, S>(
        &self,
        kind: CallKind,
        build: impl FnOnce(Comm, u64) -> S,
    ) -> M::Handle<T>
    where
        M: Mode<'a>,
        T: 'a,
        S: Future<Output = Result<T, ShutdownError>> + 'a,
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
