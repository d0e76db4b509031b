//! # gv-msgpass — an MPI-like message-passing runtime
//!
//! The paper's RSMPI layer targets MPI; this crate is the from-scratch
//! substitute (see the substitution table in DESIGN.md). Ranks are OS
//! threads, point-to-point messages move owned values through mailboxes
//! with MPI-style `(communicator, source, tag)` matching, and the
//! collectives are the textbook algorithms (binomial trees, dissemination
//! barrier, shifted recursive-doubling scans, pairwise all-to-all).
//!
//! Because the host may have few cores, the runtime additionally carries a
//! **virtual-clock cost model** ([`CostModel`]): every rank accumulates
//! modeled time for its compute ([`Comm::advance`]) and message traffic,
//! and [`RunOutcome::modeled_seconds`] reports the modeled parallel
//! elapsed time — the quantity the paper's speedup figures plot.
//!
//! ```
//! use gv_msgpass::{Runtime, localview};
//!
//! // 8 "processors", each contributing one value to a local-view
//! // reduction (paper §2).
//! let outcome = Runtime::new(8).run(|comm| {
//!     localview::local_allreduce(comm, comm.rank() as u64 + 1, |a, b| a + b)
//! });
//! assert_eq!(outcome.results, vec![36; 8]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod localview;
mod mailbox;
mod measured;
// The inline payload and the lent state (`message::loan`): the crate's
// only `unsafe`.
#[allow(unsafe_code)]
mod message;
pub mod request;
pub mod runtime;
pub mod stats;
pub mod watchdog;

pub use comm::Comm;
pub use cost::{AllreduceAlgorithm, CostModel};
pub use fault::{FaultOp, FaultPlan, FaultSummary, InjectedKill};
pub use mailbox::{ShutdownError, ShutdownKind, Source};
pub use message::Tag;
pub use request::{test_any, wait_all, Request, RequestError};
pub use runtime::{FailureReport, RunError, RunOutcome, Runtime, DEFAULT_PARK_TIMEOUT};
pub use stats::{CallKind, KernelSnapshot, Stats, StatsSnapshot, TransportSnapshot};
pub use watchdog::{BlockedOn, RankStall, RankState, StallReport};
