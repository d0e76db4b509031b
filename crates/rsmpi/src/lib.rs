//! # gv-rsmpi — RSMPI: global-view reductions and scans for message passing
//!
//! The paper's §4 contribution: "RSMPI (Reduce and Scan MPI) … makes it
//! possible to build up a library of operators that compute an entire
//! reduction or scan, not just the combine portion." Where the paper uses
//! a Perl preprocessor to inline operator definitions into C+MPI, Rust's
//! generics do the same job natively: any [`gv_core::ReduceScanOp`] runs
//! over the message-passing substrate unchanged.
//!
//! Each rank passes its contiguous *local block* of the conceptual global
//! array; the accumulate phase runs locally, and only the (often tiny)
//! operator states cross the network.
//!
//! ```
//! use gv_core::prelude::*;
//! use gv_msgpass::Runtime;
//!
//! // The paper's call-site: `minimums = mink(integer, 10) reduce A;`
//! let outcome = Runtime::new(4).run(|comm| {
//!     // Rank q holds 25 values of a conceptual 100-element array.
//!     let local: Vec<i64> = (0..25).map(|i| (comm.rank() * 25 + i) as i64).collect();
//!     gv_rsmpi::reduce_all(comm, &MinK::<i64>::new(10), &local)
//! });
//! assert_eq!(outcome.results[0], (0..10).collect::<Vec<i64>>());
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod dist;
pub mod reduce;
pub mod scan;

pub use agg::{reduce_all_elementwise, scan_elementwise};
pub use dist::DistVector;
pub use reduce::{
    ireduce_all, reduce, reduce_all, reduce_all_claiming_commutativity, reduce_all_splittable,
    ReduceAllRequest,
};
pub use scan::scan;
