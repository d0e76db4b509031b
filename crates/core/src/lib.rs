//! # gv-core — global-view user-defined reductions and scans
//!
//! A Rust implementation of the abstraction from *"Global-View
//! Abstractions for User-Defined Reductions and Scans"* (Deitz, Callahan,
//! Chamberlain, Snyder — PPoPP 2006).
//!
//! A **reduction** combines an ordered set `[a1, …, an]` into
//! `a1 ⊕ a2 ⊕ ⋯ ⊕ an`; a **scan** produces every prefix combination. The
//! *global-view* abstraction covers both the per-processor accumulate phase
//! and the cross-processor combine phase: a user-defined operator supplies
//! up to seven functions (`ident`, `pre_accum`, `accum`, `post_accum`,
//! `combine`, `red_gen`, `scan_gen`) over three types (input, state,
//! output), and the engines run the paper's Listings 2 and 3 over any
//! number of virtual processors.
//!
//! ## Quick start
//!
//! ```
//! use gv_core::prelude::*;
//!
//! // Built-in operators (the 12 MPI ops):
//! let data = [6i64, 7, 6, 3, 8, 2, 8, 4, 8, 3];
//! assert_eq!(reduce(&sum::<i64>(), &data), 55);
//! assert_eq!(
//!     scan(&sum::<i64>(), &data, ScanKind::Exclusive),
//!     vec![0, 6, 13, 19, 22, 30, 32, 40, 44, 52],
//! );
//!
//! // A user-defined operator from the paper (mink = k smallest values):
//! assert_eq!(reduce(&MinK::<i64>::new(3), &data), vec![2, 3, 3]);
//!
//! // The same reduction on 8 virtual processors:
//! let pool = gv_executor::Pool::new(2);
//! assert_eq!(par_reduce(&pool, 8, &MinK::<i64>::new(3), &data), vec![2, 3, 3]);
//! ```
//!
//! ## Crate layout
//!
//! * [`op`] — the [`op::ReduceScanOp`] trait (the paper's §3
//!   function set) and [`op::ScanKind`].
//! * [`monoid`] — the degenerate all-types-equal case (paper §2's
//!   local-view operator) and its adapter into the full trait.
//! * [`seq`] / [`par`] — sequential and shared-memory engines (Listings 2
//!   and 3).
//! * [`kernel`] — vector-lane block kernels under the engines (pinned
//!   lane regrouping, runtime ISA dispatch, dispatch counters).
//! * [`agg`] — aggregation (§2.1) as an operator: [`agg::Elementwise`]
//!   lifts any operator over rows of slots, so every engine aggregates.
//! * [`mem`] — how a large output window is backed while it is filled
//!   (the one foreign call in the crate).
//! * [`ops`] — the operator library (built-ins, `mink`, `mini`, `counts`,
//!   `sorted`, `TopBottomK`, …).
//!
//! The message-passing execution of the same operators lives in the
//! `gv-rsmpi` crate, over the `gv-msgpass` substrate.

#![warn(missing_docs)]

pub mod agg;
pub mod define;
pub mod iter;
pub mod kernel;
pub mod mem;
pub mod monoid;
pub mod op;
pub mod ops;
pub mod par;
pub mod seq;
pub mod split;

pub use monoid::{Monoid, MonoidOp};
pub use op::{ElementwiseState, ReduceScanOp, ScanKind};
pub use seq::{reduce, scan};

/// Shared-memory parallel reduction; see [`par::reduce`].
pub use par::reduce as par_reduce;
/// Shared-memory parallel scan; see [`par::scan`].
pub use par::scan as par_scan;

/// Everything needed to define and run reductions and scans.
pub mod prelude {
    pub use crate::agg::{reduce_elementwise, scan_elementwise};
    pub use crate::iter::reduce_iter;
    pub use crate::monoid::{Monoid, MonoidOp};
    pub use crate::op::{ReduceScanOp, ScanKind};
    pub use crate::ops::builtin::{
        band, bor, bxor, land, lor, lxor, max, maxloc, min, minloc, prod, sum,
    };
    pub use crate::ops::counts::{BucketRank, Counts};
    pub use crate::ops::mink::{MaxK, MinK};
    pub use crate::ops::minloc::{maxi, mini, MaxI, MinI};
    pub use crate::ops::minmax::{minmax, MinMax};
    pub use crate::ops::segmented::{flag_segments, Segmented};
    pub use crate::ops::sorted::Sorted;
    pub use crate::ops::stats::{MeanVar, Moments};
    pub use crate::ops::topk::{TopBottom, TopBottomK};
    pub use crate::par::{reduce as par_reduce, scan as par_scan};
    pub use crate::seq::{reduce, scan};
}
